package main

// Workload fig5: the 23 Figure 5 configurations through
// exper.Fig5Runner, run the way faultsim -fleet N runs them: fleet.Plan,
// then nproc lease-claiming fleet.Work workers (campaign Workers=1
// each) writing shard WALs, then fleet.Merge. About three quarters of
// the trials take the zero-mismatch fast path, so campaign, fleet, WAL
// and encode/inject/decode costs carry a real share of a trial.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/envm"
	"repro/internal/exper"
	"repro/internal/fleet"
	"repro/internal/sparse"
)

const (
	// fig5Trials is the per-config trial count of one campaign round:
	// 23 configs x 80 = 1840 trials, about 3.5 s on 2 cores, so the
	// workers' idle poll at the end of a round (up to 200 ms) is a small
	// share of it.
	fig5Trials = 80
	// fig5Replays is how many trials are replayed one at a time through
	// EvalTrial, cycling through the configs.
	fig5Replays = 230
)

type fig5Setup struct {
	ev   *ares.MeasuredEvaluator
	run  campaign.RunFunc
	dir  string
	base uint64
}

// fig5Config rebuilds the ares configuration behind a Figure 5 label
// ("CSR colidx      MLC3+ECC", "bitmask         MLC3+IdxSync", ...). The
// serial replays check it: a wrong mapping would not reproduce the
// runner's outcomes.
func fig5Config(label string) (ares.Config, error) {
	f := strings.Fields(label)
	if len(f) < 2 {
		return ares.Config{}, fmt.Errorf("fig5: unparsed label %q", label)
	}
	kinds := map[string]sparse.Kind{"CSR": sparse.KindCSR, "bitmask": sparse.KindBitMask, "2:4": sparse.Kind24}
	kind, ok := kinds[f[0]]
	if !ok {
		return ares.Config{}, fmt.Errorf("fig5: unknown encoding in label %q", label)
	}
	stream, pol := f[0], f[len(f)-1]
	if len(f) == 3 {
		stream = f[1]
	}
	var bpc int
	suffix := ""
	if _, err := fmt.Sscanf(pol, "MLC%d", &bpc); err != nil {
		return ares.Config{}, fmt.Errorf("fig5: policy in label %q: %v", label, err)
	}
	if i := strings.Index(pol, "+"); i >= 0 {
		suffix = pol[i+1:]
	}
	p := ares.StreamPolicy{BPC: bpc}
	switch suffix {
	case "":
	case "ECC":
		p.ECC = true
	case "IdxSync":
		kind = sparse.KindBitMaskIdxSync
	default:
		return ares.Config{}, fmt.Errorf("fig5: unknown protection in label %q", label)
	}
	cfg := ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: kind}, stream, p)
	return cfg, cfg.Validate()
}

func runFig5(b *bench) error {
	ctx := background
	configs := exper.Fig5Configs()
	cfgs := map[string]ares.Config{}
	for _, l := range configs {
		c, err := fig5Config(l)
		if err != nil {
			return err
		}
		cfgs[l] = c
	}
	n := runtime.GOMAXPROCS(0)
	nRound := 0
	nextRound := func() (string, uint64) {
		nRound++
		return filepath.Join(b.workDir, fmt.Sprintf("fig5-%d", nRound)), newRNG(b.seed, uint64(nRound)).Uint64()
	}
	var plans []float64
	plan := func(dir string, base uint64) error {
		t0 := time.Now()
		_, err := fleet.Plan(fleet.PlanSpec{
			Dir: dir, Seed: base, Configs: configs, MaxTrials: fig5Trials,
			ShardSize: (fig5Trials + 2*n - 1) / (2 * n), SpecKind: "inline",
		})
		plans = append(plans, time.Since(t0).Seconds())
		return err
	}

	st, setupS, err := medianSetup(func() (fig5Setup, error) {
		env, ev, err := newEvaluator()
		if err != nil {
			return fig5Setup{}, err
		}
		run, err := env.Fig5Runner()
		if err != nil {
			return fig5Setup{}, err
		}
		dir, base := nextRound()
		return fig5Setup{ev: ev, run: run, dir: dir, base: base}, plan(dir, base)
	}, func(s fig5Setup) { os.RemoveAll(s.dir) })
	if err != nil {
		return err
	}
	setupPlans := append([]float64(nil), plans...)
	b.printf("fig5: %d configs x %d trials per round, %d fleet workers x campaign Workers=1, model baseline err %.4f",
		len(configs), fig5Trials, n, st.ev.BaselineErr)
	b.e2e("setup_s", "s", setupS, setupReps)

	// The first round runs the campaign the set-up planned.
	planned, plannedBase := st.dir, st.base
	runRound := func(tr *tracer) (*round, error) {
		dir, base := planned, plannedBase
		planned = ""
		if dir == "" {
			dir, base = nextRound()
			if err := plan(dir, base); err != nil {
				return nil, err
			}
		}
		defer os.RemoveAll(dir)
		return fig5RunRound(ctx, b, tr, st.run, dir, base, configs, n)
	}

	rounds, err := measureRounds(nil, b.phaseSeconds(), runRound)
	if err != nil {
		return err
	}
	rate, trials, fast := summarize(rounds)
	b.e2e("trials_per_s", "1/s", median(rate), len(rate))
	b.printf("  (%d trials per round incl. merge, median of %d rounds %s; fast-path share %.3f)",
		len(configs)*fig5Trials, len(rate), fmtRates(rate), fast)
	fig5Checks(b, rounds, configs)

	// Serial replays: one trial at a time through EvalTrial, compared
	// bit for bit with what the campaign recorded.
	last := rounds[len(rounds)-1]
	r := newRNG(b.seed, 1<<20)
	for i := 0; i < fig5Replays; i++ {
		label := configs[i%len(configs)]
		idx := r.Intn(fig5Trials)
		seed := campaign.TrialSeed(last.base, label, idx)
		delta, s, err := st.ev.EvalTrial(ctx, cfgs[label], seed)
		if err != nil {
			return fmt.Errorf("replay %s#%d: %w", label, idx, err)
		}
		got := outcomeOf(delta, s)
		if want := last.rc.outcomes[trialKey{label, idx}]; !sameOutcome(got, want, false) {
			b.check(false, "fig5 replay %s#%d: EvalTrial %+v, campaign recorded %+v", label, idx, got, want)
			break
		}
	}
	b.ops(trials+fig5Replays, 0)

	if !b.trace {
		return nil
	}
	b.tr = newTracer()
	traced, err := measureRounds(b.tr, b.phaseSeconds(), runRound)
	if err != nil {
		return err
	}
	fig5Checks(b, traced, configs)
	trate, ttrials, tfast := summarize(traced)
	b.ops(ttrials, 0)
	b.printf("traced phase: trials_per_s %.2f (untraced %.2f)", median(trate), median(rate))
	b.layer("trace.overhead_frac", "ratio", 1-median(trate)/median(rate), len(trate))
	traceSetup(b, st.ev, setupS, " + fleet.plan_s")
	b.layer("fleet.plan_s", "s", median(setupPlans), len(setupPlans))

	spans := b.tr.snapshot()
	runs := durMS(named(spans, "campaign.run"))
	b.layer("campaign.trial_p50_ms", "ms", quantile(runs, 0.5), len(runs))
	b.layer("campaign.trial_p99_ms", "ms", quantile(runs, 0.99), len(runs))
	var merges, drains, claims, steals, wal []float64
	for _, r := range traced {
		merges = append(merges, r.merge.Seconds())
		drains = append(drains, r.drain.Seconds())
		claims = append(claims, float64(r.claims))
		steals = append(steals, float64(r.steals))
		wal = append(wal, float64(r.walBytes))
	}
	b.layer("campaign.busy_frac", "ratio", busyFrac(traced, n), len(traced))
	b.layer("fleet.merge_s", "s", median(merges), len(merges))
	b.layer("fleet.drain_s", "s", median(drains), len(drains))
	b.layer("fleet.claims", "count", mean(claims), len(claims))
	b.layer("fleet.steals", "count", mean(steals), len(steals))
	b.layer("fleet.wal_bytes", "bytes", mean(wal), len(wal))
	b.layer("ares.fasthit_frac", "ratio", tfast, ttrials)

	var probeCfgs []ares.Config
	var probes []probeTrial
	lastT := traced[len(traced)-1]
	for i, l := range configs {
		probeCfgs = append(probeCfgs, cfgs[l])
		for k := 0; k < 4; k++ {
			probes = append(probes, probeTrial{cfg: i, seed: campaign.TrialSeed(lastT.base, l, k)})
		}
	}
	corruptProbe(b, st.ev, probeCfgs, probes)
	kernelReplay(b, st.ev)
	b.printf("  accounting: campaign trial mean %.4f ms (nproc in flight) = ares.corrupt_ms + ares.measure_ms (serial) %.4f + residual %.4f ms",
		mean(runs), b.res.Metrics["ares.corrupt_ms"].Value+b.res.Metrics["ares.measure_ms"].Value,
		mean(runs)-b.res.Metrics["ares.corrupt_ms"].Value-b.res.Metrics["ares.measure_ms"].Value)
	b.skip("fig5 runs the storage routes through exper.Fig5Runner; per-route corrupted-trial cost is the corrupted workload's", routeMetrics...)
	b.skip("fig5 has no crossbar config", crossbarMetrics...)
	return serveLayerProbe(b, st.ev, serveProbeSeconds)
}

// fig5RunRound runs one planned fleet campaign: n fleet.Work workers,
// then fleet.Merge.
func fig5RunRound(ctx context.Context, b *bench, tr *tracer, run campaign.RunFunc, dir string, base uint64,
	configs []string, n int) (*round, error) {
	rc := newRecorder(true)
	wrapped := rc.wrap(tr, func(ctx context.Context, t campaign.Trial, _ int) (campaign.Sample, outcome, error) {
		s, err := run(ctx, t)
		return s, outcome{delta: s.Value, faults: int(s.Extra["faults"]), mismatch: s.Extra["mismatch"]}, err
	})
	var logs lockedBuffer
	reports := make([]*fleet.WorkReport, n)
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", i)
			sp := tr.begin("fleet.Work", name, -1)
			reports[i], errs[i] = fleet.Work(withSpan(ctx, sp), fleet.WorkerOptions{
				Dir: dir, Name: name, Run: wrapped, TTL: 2 * time.Second,
				Workers: 1, WaitForAll: true, Log: &logs,
			})
			tr.end(sp)
		}(i)
	}
	wg.Wait()
	workEnd := time.Now()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet worker %d: %w (log: %s)", i, err, logs.String())
		}
	}
	var walBytes int64
	if wals, err := filepath.Glob(filepath.Join(dir, "*.wal")); err == nil {
		for _, w := range wals {
			if fi, err := os.Stat(w); err == nil {
				walBytes += fi.Size()
			}
		}
	}
	sp := tr.begin("fleet.Merge", "merge", -1)
	mrep, err := fleet.Merge(fleet.MergeOptions{Dir: dir, Log: &logs})
	tr.end(sp)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("fleet merge: %w (log: %s)", err, logs.String())
	}
	r := &round{base: base, rc: rc, work: workEnd.Sub(start), wall: end.Sub(start),
		merge: end.Sub(workEnd), drain: workEnd.Sub(rc.lastEnd), walBytes: walBytes}
	for _, rep := range reports {
		r.claims += rep.Claimed
		r.steals += rep.Stolen
	}

	want := len(configs) * fig5Trials
	b.check(mrep.Records == want && mrep.Mismatches == 0 && mrep.Done == mrep.Shards,
		"fig5 merge: %d records (want %d), %d mismatches, %d/%d shards done", mrep.Records, want, mrep.Mismatches, mrep.Done, mrep.Shards)
	res := mrep.Result
	b.check(res != nil && !res.Interrupted && !res.Degraded, "fig5 merge: result missing, interrupted or degraded")
	if res != nil {
		for _, c := range res.Configs {
			b.check(c.N == fig5Trials && len(c.Errors) == 0, "fig5 merge: config %q has n=%d, %d errors", c.Config, c.N, len(c.Errors))
		}
		// The merged aggregates must equal a fold of what the workers'
		// trials returned.
		seen := map[trialKey]bool{}
		var recs []*campaign.Record
		for _, rec := range rc.records {
			k := trialKey{rec.Config, rec.Trial}
			if !seen[k] {
				seen[k] = true
				recs = append(recs, rec)
			}
		}
		folded, err := campaign.Fold(configs, campaign.Options{Seed: base, MaxTrials: fig5Trials}, recs)
		if err != nil {
			b.check(false, "fig5 fold: %v", err)
		} else if err := sameAggregates(folded, res); err != nil {
			b.check(false, "fig5 merge differs from a fold of the recorded trials: %v", err)
		}
	}
	rc.records = nil
	b.check(rc.failed == 0, "fig5: %d trials failed", rc.failed)
	return r, nil
}

// fig5Checks pools every trial of the phase and checks the EXPERIMENTS.md
// Figure 5 ordering.
func fig5Checks(b *bench, rounds []*round, configs []string) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	for _, r := range rounds {
		for c, v := range r.rc.sum {
			sum[c] += v
			cnt[c] += r.rc.cnt[c]
		}
	}
	m := func(label string) float64 {
		if cnt[label] == 0 {
			b.check(false, "fig5: no trials of %q", label)
			return math.NaN()
		}
		return sum[label] / float64(cnt[label])
	}
	bm, rowc, col := m("bitmask         MLC3"), m("CSR rowcount    MLC3"), m("CSR colidx      MLC3")
	b.check(bm > rowc && rowc > col, "fig5 ordering: bitmask MLC3 %.4f > CSR rowcount MLC3 %.4f > CSR colidx MLC3 %.4f does not hold", bm, rowc, col)
	for _, l := range []string{"bitmask         MLC3+ECC", "bitmask         MLC3+IdxSync"} {
		b.check(m(l) < bm, "fig5 ordering: %q %.4f not below bitmask MLC3 %.4f", l, m(l), bm)
	}
	// EXPERIMENTS.md prints MLC1 rows as 0 at four decimals. Over
	// hundreds of trials a rare single-level-cell fault can flip one
	// test image, so the check is that precision, not exact zero.
	for _, l := range configs {
		if strings.HasSuffix(l, "MLC1") {
			b.check(m(l) < 5e-5, "fig5: MLC1 row %q has mean delta %.6f, want 0 at four decimals", l, m(l))
		}
	}
}

// lockedBuffer collects log output from concurrent workers.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}
