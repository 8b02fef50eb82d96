package fleet

// The headline fault test: a real worker process is SIGKILLed mid-shard
// — no cooperative shutdown, no deferred cleanup, the kernel just takes
// it — and the surviving fleet steals the orphaned shard, inherits the
// records its WAL already held, re-executes the rest, and merges to a
// result bit-identical to an uninterrupted single-process run.
//
// The victim is this test binary re-executed: TestMain notices the
// FLEET_WORKER_DIR environment variable and becomes a worker instead of
// running tests.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv("FLEET_WORKER_DIR"); dir != "" {
		os.Exit(fleetWorkerMain(dir))
	}
	os.Exit(m.Run())
}

// fleetWorkerMain is the subprocess body: one worker against the fleet
// directory, with an optional per-trial sleep so the parent has a
// window to kill it mid-shard.
func fleetWorkerMain(dir string) int {
	sleepMS, _ := strconv.Atoi(os.Getenv("FLEET_WORKER_SLEEP_MS"))
	run := func(ctx context.Context, tr campaign.Trial) (campaign.Sample, error) {
		if sleepMS > 0 {
			select {
			case <-time.After(time.Duration(sleepMS) * time.Millisecond):
			case <-ctx.Done():
				return campaign.Sample{}, ctx.Err()
			}
		}
		return detRun(ctx, tr)
	}
	_, err := Work(context.Background(), WorkerOptions{
		Dir:       dir,
		Name:      os.Getenv("FLEET_WORKER_NAME"),
		Run:       run,
		Workers:   1,
		TTL:       2 * time.Second,
		Heartbeat: 100 * time.Millisecond,
		Log:       os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker subprocess:", err)
		return 1
	}
	return 0
}

// TestKilledWorkerShardStolenMergeBitIdentical: SIGKILL a worker
// process mid-shard; the fleet steals the shard through the flock
// liveness probe (the kernel released the dead holder's lock), runs to
// completion, and the merge is bit-identical to a single-process run.
func TestKilledWorkerShardStolenMergeBitIdentical(t *testing.T) {
	m, dir := planTestFleet(t, PlanSpec{
		Seed: 99, Configs: []string{"slow-a", "slow-b"}, MaxTrials: 8, ShardSize: 4,
	})
	ref := reference(t, m)

	victim := exec.Command(os.Args[0], "-test.run=^$")
	victim.Env = append(os.Environ(),
		"FLEET_WORKER_DIR="+dir,
		"FLEET_WORKER_NAME=victim",
		"FLEET_WORKER_SLEEP_MS=200",
	)
	victim.Stderr = os.Stderr
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()

	// The victim claims s0000 first (manifest order) and streams a
	// record every ~200ms. Kill it the moment the first record lands:
	// mid-shard, with three trials of the span still unexecuted.
	waitFor(t, 30*time.Second, func() bool {
		recs, _, err := campaign.ReadCheckpoint(nil, walPath(dir, "s0000", 1), m.Seed, io.Discard)
		return err == nil && len(recs) >= 1
	})
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	if done, _ := exists(orFS(nil), donePath(dir, "s0000")); done {
		t.Fatal("victim finished its shard before the kill landed; the kill was not mid-shard")
	}

	reg := telemetry.NewRegistry()
	rep, reports, err := RunLocal(context.Background(), 4, WorkerOptions{
		Dir: dir, Run: detRun, Workers: 2,
		TTL: 300 * time.Millisecond, Heartbeat: 50 * time.Millisecond,
		Poll: 20 * time.Millisecond,
		Log:  os.Stderr, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stolen, reused int
	for _, r := range reports {
		stolen += r.Stolen
		reused += r.Reused
	}
	if stolen < 1 {
		t.Fatalf("the dead victim's shard was never stolen (reports: %+v)", reports)
	}
	if reused < 1 {
		t.Fatalf("the victim's checkpointed records were not inherited (reports: %+v)", reports)
	}
	if got := reg.Counter("fleet.leases.stolen").Value(); got < 1 {
		t.Fatalf("fleet.leases.stolen = %d, want >= 1", got)
	}

	// The recovered shard's done marker must record a successor epoch.
	var dr doneRecord
	b, err := readAll(orFS(nil), donePath(dir, "s0000"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Epoch < 2 {
		t.Fatalf("s0000 done at epoch %d, want >= 2 (stolen after the kill)", dr.Epoch)
	}
	if dr.Owner == "victim" {
		t.Fatalf("s0000 done marker owned by the dead victim")
	}

	sameAggregates(t, ref, rep.Result)
	if rep.Mismatches != 0 {
		t.Fatalf("determinism mismatches across epochs: %d", rep.Mismatches)
	}
	if rep.Done != rep.Shards {
		t.Fatalf("merge saw %d/%d shards done", rep.Done, rep.Shards)
	}
}
