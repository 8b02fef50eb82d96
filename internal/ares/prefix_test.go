package ares

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
)

// The prefix-vs-full grid: a measured trial that starts its forward
// pass at its first dirty weight layer, reading the layers before it
// from its base's activation prefix, must reproduce the full pass bit
// for bit — same delta, same TrialStats — at every start position, on
// every route that keeps a prefix, whichever replica serves it.

func csrValuesConfig() Config {
	return IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR}, "values", StreamPolicy{BPC: 3})
}

func values24Config() Config {
	return IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.Kind24}, "values", StreamPolicy{BPC: 3})
}

// prefixGrid holds, per route, one seed per first-dirty TinyCNN layer
// (model-layer index: conv1 0, conv2 2, fc1 4, fc2 5), found by probing
// seeds 1..1500; the test re-checks every seed's start position.
var prefixGrid = []struct {
	name   string
	cfg    Config
	starts map[int]uint64
}{
	{"csr", csrValuesConfig(), map[int]uint64{0: 9, 2: 2, 4: 1, 5: 56}},
	{"2:4", values24Config(), map[int]uint64{0: 30, 2: 2, 4: 1, 5: 749}},
}

// firstDirty returns the layer trial t's measured pass starts at
// (-1: no layer differs from the base).
func firstDirty(ev *MeasuredEvaluator, t trial) int {
	r := ev.newReplica()
	defer r.reset()
	return r.overlay(ev, t)
}

// withPool runs fn on an empty replica pool of the given capacity, then
// restores the evaluator's own pool.
func withPool(ev *MeasuredEvaluator, size int, fn func()) {
	replicas, sem := ev.replicas, ev.replicaSem
	ev.replicas, ev.replicaSem = make(chan *replica, size), make(chan struct{}, size)
	defer func() { ev.replicas, ev.replicaSem = replicas, sem }()
	fn()
}

// withoutPrefix runs fn with every base's prefix removed, so every
// measured trial runs the full pass on its replica.
func withoutPrefix(t *testing.T, ev *MeasuredEvaluator, fn func()) {
	tf, err := ev.twofour()
	if err != nil {
		t.Fatal(err)
	}
	p, p24 := ev.base.prefix, tf.base.prefix
	ev.base.prefix, tf.base.prefix = nil, nil
	defer func() { ev.base.prefix, tf.base.prefix = p, p24 }()
	fn()
}

// startCounts reads the per-start-layer trial counters.
func startCounts(ev *MeasuredEvaluator) []int64 {
	out := make([]int64, len(ev.prefixStarts))
	for i, c := range ev.prefixStarts {
		if c != nil {
			out[i] = c.Value()
		}
	}
	return out
}

func startsMoved(before, after []int64) map[int]int64 {
	moved := map[int]int64{}
	for i := range before {
		if d := after[i] - before[i]; d != 0 {
			moved[i] = d
		}
	}
	return moved
}

func TestPrefixParityGrid(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	type job struct {
		route string
		cfg   Config
		seed  uint64
		start int
		delta float64
		stats TrialStats
	}
	var jobs []job
	for _, g := range prefixGrid {
		for _, start := range []int{0, 2, 4, 5} {
			seed, ok := g.starts[start]
			if !ok {
				t.Fatalf("%s: no seed for start layer %d", g.name, start)
			}
			tr, err := ev.corrupt(ctx, g.cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := firstDirty(ev, tr); tr.pristine || got != start {
				t.Fatalf("%s seed %d: first dirty layer %d (pristine %v), want %d", g.name, seed, got, tr.pristine, start)
			}
			d, st, err := ev.EvalTrialSerial(ctx, g.cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{g.name, g.cfg, seed, start, d, st})
		}
	}
	// Pool size 1 makes one replica serve every start in turn, so a pass
	// that read a stale buffer left by a pass started elsewhere would
	// show; at size 2 two callers split the jobs over two replicas.
	for _, size := range []int{1, 2} {
		before := startCounts(ev)
		withPool(ev, size, func() {
			var wg sync.WaitGroup
			for c := 0; c < size; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := c; k < len(jobs); k += size {
						j := jobs[k]
						d, st, err := ev.EvalTrial(ctx, j.cfg, j.seed)
						if err != nil {
							t.Error(err)
							return
						}
						if d != j.delta || st != j.stats {
							t.Errorf("pool %d, %s seed %d (start %d): prefix (%v, %+v) != full pass (%v, %+v)",
								size, j.route, j.seed, j.start, d, st, j.delta, j.stats)
						}
					}
				}()
			}
			wg.Wait()
		})
		moved := startsMoved(before, startCounts(ev))
		for _, start := range []int{0, 2, 4, 5} {
			if want := int64(len(prefixGrid)); moved[start] != want {
				t.Errorf("pool %d: %d trials counted at start %d, want %d (moved %v)", size, moved[start], start, want, moved)
			}
		}
	}
}

// TestPrefixPassLogitsGrid checks the pass itself, below the coarse
// error delta: one replica serves every grid trial in an order that
// alternates start layers, and each pass's logits must equal, bit for
// bit, a fresh full pass over the same overlay. The decode-to-dense
// 2:4 trials (the Kind24 lifetime and oracle payload) never match the
// 2:4 base's operands and must start at layer 0.
func TestPrefixPassLogitsGrid(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	type job struct {
		name  string
		tr    trial
		start int
	}
	var jobs []job
	for _, start := range []int{5, 0, 4, 2} {
		for _, g := range prefixGrid {
			tr, err := ev.corrupt(ctx, g.cfg, g.starts[start])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{g.name, tr, start})
		}
		dense, err := ev.corruptStorage(ctx, values24Config(), prefixGrid[1].starts[start])
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{"2:4 decode-to-dense", dense, 0})
	}
	r := ev.newReplica()
	for _, j := range jobs {
		before := startCounts(ev)
		got := r.pass(ev, j.tr)
		if moved := startsMoved(before, startCounts(ev)); len(moved) != 1 || moved[j.start] != 1 {
			t.Errorf("%s: pass counted at %v, want start %d", j.name, moved, j.start)
		}
		full := dnn.NewForwarder(ev.Model)
		copy(full.Ops, r.fw.Ops)
		want := full.Forward(ev.Test.Images)
		for k := range want.Data {
			if math.Float32bits(got.Data[k]) != math.Float32bits(want.Data[k]) {
				t.Fatalf("%s from layer %d: logit %d is %v, full pass %v", j.name, j.start, k, got.Data[k], want.Data[k])
			}
		}
		r.reset()
	}
}

func TestLifetimePrefixParity(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cases := []struct {
		name string
		cfg  Config
		lp   LifetimePolicy
	}{
		{"csr", csrValuesConfig(), LifetimePolicy{Years: 10, EvalEpochs: 4}},
		{"csr scrubbed", csrValuesConfig(), LifetimePolicy{Years: 10, ScrubIntervalYears: 2.5}},
		{"2:4 decode-to-dense", values24Config(), LifetimePolicy{Years: 10, EvalEpochs: 3}},
	}
	seeds := []uint64{1, 2}
	for _, c := range cases {
		want := make([]LifetimeStats, len(seeds))
		withoutPrefix(t, ev, func() {
			for i, seed := range seeds {
				var err error
				if want[i], err = ev.LifetimeTrial(ctx, c.cfg, c.lp, seed); err != nil {
					t.Fatal(err)
				}
			}
		})
		// Pool size 1 runs the seeds one after another on one replica;
		// size 2 runs them at once.
		for _, size := range []int{1, 2} {
			before := startCounts(ev)
			withPool(ev, size, func() {
				var wg sync.WaitGroup
				for i, seed := range seeds {
					wg.Add(1)
					run := func() {
						defer wg.Done()
						got, err := ev.LifetimeTrial(ctx, c.cfg, c.lp, seed)
						if err != nil {
							t.Error(err)
						} else if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("pool %d, %s seed %d: prefix %+v != full pass %+v", size, c.name, seed, got, want[i])
						}
					}
					if size == 1 {
						run()
					} else {
						go run()
					}
				}
				wg.Wait()
			})
			starts := startsMoved(before, startCounts(ev))
			if c.cfg.Encoding == sparse.Kind24 {
				// Decode-to-dense layers never match the 2:4 base's
				// operands, so every epoch falls back to the full pass.
				if len(starts) != 1 || starts[0] == 0 {
					t.Errorf("pool %d, %s: starts %v, want every epoch at layer 0", size, c.name, starts)
				}
			} else if len(starts) < 2 {
				t.Errorf("pool %d, %s: starts %v, want the prefix used at more than one layer", size, c.name, starts)
			}
		}
	}
}

// TestMeasureAllocFree pins the steady-state measure step, start
// counter included, at zero allocations for every start layer.
func TestMeasureAllocFree(t *testing.T) {
	ev := getMeasured(t)
	for start, seed := range prefixGrid[0].starts {
		tr, err := ev.corrupt(context.Background(), prefixGrid[0].cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		ev.measure(tr) // warm the replica's buffers
		if n := testing.AllocsPerRun(3, func() { ev.measure(tr) }); n != 0 {
			t.Errorf("measure from layer %d allocates %v per run, want 0", start, n)
		}
	}
}

func TestPrefixBytes(t *testing.T) {
	ev := getMeasured(t)
	tf, err := ev.twofour()
	if err != nil {
		t.Fatal(err)
	}
	// pool1, pool2 and fc1 of TinyCNN over the 200-image test set.
	const want = 4 * 200 * (8*6*6 + 16*3*3 + 64)
	if got := ev.base.prefix.Bytes(); got != want {
		t.Errorf("clustered prefix holds %d bytes, want %d", got, want)
	}
	if got := tf.base.prefix.Bytes(); got != want {
		t.Errorf("2:4 prefix holds %d bytes, want %d", got, want)
	}
	if met.prefixBytes.Value() < 2*want {
		t.Errorf("ares.prefix.bytes = %v, below this evaluator's %d", met.prefixBytes.Value(), 2*want)
	}
}
