package maxnvm

// Tracked inference-engine benchmarks (make bench-inference): campaign
// trial throughput through the replica pool vs the legacy serialized
// path, and the allocation profile of the steady-state forward pass.
// Results are written to BENCH_inference.json so speedups and
// regressions are visible in review diffs. Compare runs benchstat-style:
// save the old and new `go test -bench` output and diff the ns/op,
// allocs/op, and trials/s columns.
//
// Two workloads are tracked:
//
//   - CampaignTrialThroughput*: the paper's Figure 5 row-counter config
//     (CTT MLC3 on the CSR rowcount stream). The stream is a few hundred
//     cells, so most fault maps decode clean and take the zero-mismatch
//     fast path — the realistic campaign mix.
//   - CorruptedTrialThroughput*: the CSR value stream at MLC3, where
//     essentially every trial corrupts weights and pays full inference —
//     the worst case, isolating replica-vs-lock measurement cost.
//
// The reported fasthit/op metric makes the fast-path fraction explicit
// in the JSON so the two workloads cannot be confused.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

var (
	benchMeasuredOnce sync.Once
	benchMeasuredEv   *ares.MeasuredEvaluator
	benchMeasuredErr  error
)

// benchMeasured trains the TinyCNN fixture once per benchmark binary and
// wraps it in a MeasuredEvaluator (same recipe as the ares test suite).
func benchMeasured(b *testing.B) *ares.MeasuredEvaluator {
	b.Helper()
	benchMeasuredOnce.Do(func() {
		trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
		testDS := train.Synthesize(train.SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
		m := dnn.TinyCNN()
		m.InitWeights(42)
		if _, benchMeasuredErr = train.Train(m, trainDS, train.Config{Epochs: 6, Seed: 1}); benchMeasuredErr != nil {
			return
		}
		benchMeasuredEv, benchMeasuredErr = ares.NewMeasuredEvaluator(m, testDS, 5)
	})
	if benchMeasuredErr != nil {
		b.Fatal(benchMeasuredErr)
	}
	return benchMeasuredEv
}

func benchFig5Config() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", ares.StreamPolicy{BPC: 3})
}

func benchDenseFaultConfig() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"values", ares.StreamPolicy{BPC: 3})
}

// trial is one EvalTrial-shaped call under benchmark.
type trialFunc func(ctx context.Context, cfg ares.Config, seed uint64) (float64, ares.TrialStats, error)

// benchTrials drives fn from GOMAXPROCS goroutines — the campaign
// engine's access pattern — reporting trials/s and the fast-path hit
// fraction.
func benchTrials(b *testing.B, cfg ares.Config, fn trialFunc) {
	ctx := context.Background()
	// Warm the encoding cache (and replica pool) outside the timer.
	if _, _, err := fn(ctx, cfg, 1); err != nil {
		b.Fatal(err)
	}
	fastHits := telemetry.Default().Counter("ares.fastpath.hits")
	hits0 := fastHits.Value()
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := fn(ctx, cfg, seed.Add(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "trials/s")
	}
	b.ReportMetric(float64(fastHits.Value()-hits0)/float64(b.N), "fasthit/op")
}

// BenchmarkCampaignTrialThroughput is the headline: Figure 5 campaign
// trials through the replica pool (parallel measurement + fast path).
func BenchmarkCampaignTrialThroughput(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchFig5Config(), ev.EvalTrial)
}

// BenchmarkCampaignTrialThroughputSerial is the reference-oracle row:
// the same concurrent callers, but every trial takes the lock-free
// oracle (EvalTrialSerial) — no fast path, fresh dense weights and a
// fresh default-Workers forward pass per trial.
func BenchmarkCampaignTrialThroughputSerial(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchFig5Config(), ev.EvalTrialSerial)
}

// BenchmarkCorruptedTrialThroughput is the worst case: every trial
// corrupts weights, so the fast path never fires and each trial pays a
// full (allocation-free, replica-local) inference pass.
func BenchmarkCorruptedTrialThroughput(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchDenseFaultConfig(), ev.EvalTrial)
}

// BenchmarkCorruptedTrialThroughputSerial is the reference-oracle row
// for the worst case.
func BenchmarkCorruptedTrialThroughputSerial(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, benchDenseFaultConfig(), ev.EvalTrialSerial)
}

func bench24FaultConfig() ares.Config {
	return ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.Kind24},
		"values", ares.StreamPolicy{BPC: 3})
}

// BenchmarkCorruptedTrialThroughput24Direct is the compute-direct 2:4
// worst case: every trial corrupts the value stream, canonicalizes the
// compact form, and runs inference through the tensor.Sparse24 kernels —
// no dense weight matrix is ever materialized. Compare against
// CorruptedTrialThroughput (CSR decode-to-dense, same replica pool) and
// the 24Oracle row below for the decode-elimination speedup.
func BenchmarkCorruptedTrialThroughput24Direct(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, bench24FaultConfig(), ev.EvalTrial)
}

// BenchmarkCorruptedTrialThroughput24Oracle is the decode-to-dense
// reference route for the same 2:4 workload (EvalTrialSerial): corrupted
// streams decode to a dense index matrix and run the dense kernels.
func BenchmarkCorruptedTrialThroughput24Oracle(b *testing.B) {
	ev := benchMeasured(b)
	benchTrials(b, bench24FaultConfig(), ev.EvalTrialSerial)
}

// assertForwardAllocFree fails b unless the warmed-up Forwarder's full
// pass, and its pass started at every weight layer from a snapshot of
// that pass (the corrupted trials' prefix reuse), allocate nothing.
func assertForwardAllocFree(b *testing.B, f *dnn.Forwarder, m *dnn.Model, in *tensor.Tensor4) {
	f.Forward(in) // materialize buffers
	if n := testing.AllocsPerRun(10, func() { f.Forward(in) }); n != 0 {
		b.Fatalf("steady-state forward pass allocates %v allocs/op, want 0", n)
	}
	prefix := f.Snapshot()
	for s, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { f.ForwardFrom(in, prefix, s) }); n != 0 {
			b.Fatalf("steady-state pass from %s allocates %v allocs/op, want 0", l.Name, n)
		}
	}
}

// BenchmarkForwardAllocFree measures the steady-state forward pass in
// the replica configuration (Workers=1, reused Forwarder). Run with
// -benchmem: the acceptance criterion is 0 allocs/op, for the full pass
// and for passes started at any weight layer.
func BenchmarkForwardAllocFree(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	assertForwardAllocFree(b, f, m, ds.Images)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}

// BenchmarkForwardAllocFree24 is the same steady-state forward pass with
// every weight layer routed through the compute-direct 2:4 kernels
// (weights projected onto the 2:4 pattern). Same acceptance criterion:
// 0 allocs/op, from every start. The ns/op delta vs BenchmarkForwardAllocFree is the raw
// kernel speedup from skipping half the MACs.
func BenchmarkForwardAllocFree24(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	for li, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		w := l.Weights
		s := tensor.NewSparse24(w.Rows, w.Cols)
		gpr := s.GroupsPerRow
		for r := 0; r < w.Rows; r++ {
			for g := 0; g < gpr; g++ {
				lim := w.Cols - g*4
				if lim > 4 {
					lim = 4
				}
				// Keep the two largest magnitudes per group (leftmost ties).
				best, second := -1, -1
				abs := func(p int) float32 {
					v := w.Data[r*w.Cols+g*4+p]
					if v < 0 {
						v = -v
					}
					return v
				}
				for p := 0; p < lim; p++ {
					switch {
					case best < 0 || abs(p) > abs(best):
						best, second = p, best
					case second < 0 || abs(p) > abs(second):
						second = p
					}
				}
				if second >= 0 && second < best {
					best, second = second, best
				}
				e := (r*gpr + g) * 2
				k := 0
				for _, p := range [2]int{best, second} {
					if p >= 0 && abs(p) != 0 {
						s.Val[e+k], s.Pos[e+k] = w.Data[r*w.Cols+g*4+p], uint8(p)
						k++
					}
				}
			}
		}
		f.Ops[li] = s
	}
	assertForwardAllocFree(b, f, m, ds.Images)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}

// BenchmarkForwardAllocFreeXbar is the same steady-state forward pass
// with every weight layer routed through the crossbar kernels: each
// layer overlaid with its pristine mapping (64x32 tiles, 8-bit ADC).
// Same acceptance criterion: 0 allocs/op, from every start — the conv
// lowering's padded-image and patch scratch grow once, then are reused.
func BenchmarkForwardAllocFreeXbar(b *testing.B) {
	ds := train.Synthesize(train.SynthConfig{N: 100, Seed: 1})
	m := dnn.TinyCNN()
	m.InitWeights(1)
	f := dnn.NewForwarder(m)
	f.Workers = 1
	for li, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		xl, err := crossbar.Map(l.Weights, crossbar.Config{Rows: 64, Cols: 32, ADCBits: 8}, envm.CTT)
		if err != nil {
			b.Fatal(err)
		}
		f.Ops[li] = xl.PristineXbar()
	}
	assertForwardAllocFree(b, f, m, ds.Images)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(ds.Images)
	}
}
