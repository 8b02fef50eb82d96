package ares

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
)

func TestEvalTrialDeterministic(t *testing.T) {
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	ctx := context.Background()
	d1, s1, err := ev.EvalTrial(ctx, cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	d2, s2, err := ev.EvalTrial(ctx, cfg, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%v, %+v) vs (%v, %+v)", d1, s1, d2, s2)
	}
}

func TestRunTrialCheckedMatchesEvalConfig(t *testing.T) {
	// RunTrialChecked fed EvalConfig's derived per-layer seeds must
	// reproduce its per-trial fault counts exactly: the checked variant is
	// the same injection pipeline, only with errors instead of panics.
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	const trials, seed = 4, 99
	legacy := ev.EvalConfig(cfg, trials, seed)

	src := stats.NewSource(seed)
	for tr := 0; tr < trials; tr++ {
		tsrc := src.Fork(uint64(tr) + 1)
		var agg TrialStats
		for _, cl := range ev.Clustered() {
			st, _, err := RunTrialChecked(context.Background(), sparse.Must(EncodeLayer(cl, cfg)),
				cl.Indices, cl.Centroids, cfg, tsrc.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			agg.Faults += st.Faults
		}
		if agg.Faults != legacy.Stats[tr].Faults {
			t.Fatalf("trial %d: %d faults vs legacy %d", tr, agg.Faults, legacy.Stats[tr].Faults)
		}
	}
}

func TestEvalTrialConcurrentSafe(t *testing.T) {
	// Concurrent EvalTrial calls must neither race (run under -race) nor
	// perturb each other's results: each measurement overlays its weights
	// on its own replica, and the shared model is only read.
	ev := getMeasured(t)
	cfg := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	ctx := context.Background()
	const n = 8
	seeds := make([]uint64, n)
	want := make([]float64, n)
	for i := range seeds {
		seeds[i] = uint64(1000 + i*7)
		d, _, err := ev.EvalTrial(ctx, cfg, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	got := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := ev.EvalTrial(ctx, cfg, seeds[i])
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent delta %v != sequential %v", seeds[i], got[i], want[i])
		}
	}
}

func TestEvalTrialCancelled(t *testing.T) {
	ev := getMeasured(t)
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ev.EvalTrial(ctx, cfg, 1); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestEvalTrialRejectsInvalidConfig(t *testing.T) {
	ev := getMeasured(t)
	bad := Config{Tech: envm.SLCRRAM, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 3}}
	if _, _, err := ev.EvalTrial(context.Background(), bad, 1); err == nil {
		t.Fatal("invalid config accepted (SLC-RRAM cannot store 3 bpc)")
	}
}

func TestRunTrialCheckedRejectsMismatchedOrig(t *testing.T) {
	ev := getMeasured(t)
	cl := ev.Clustered()[0]
	cfg := Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: StreamPolicy{BPC: 1}}
	enc := sparse.Must(EncodeLayer(cl, cfg))
	if _, _, err := RunTrialChecked(context.Background(), enc, cl.Indices[:3], cl.Centroids, cfg, 1); err == nil {
		t.Fatal("mismatched original indices accepted")
	}
}

// TestEvalTrialCountsDegradedBlocks: with Degrade on, the trial
// aggregate carries the degraded-block count — EvalTrial, CorruptTrial
// and EvalConfig all report the sum of the per-layer RunTrialChecked
// counts under the same seeds, and the count is non-zero for a seed
// whose ECC detected uncorrectable blocks.
func TestEvalTrialCountsDegradedBlocks(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	cfg := degradeConfig(true)
	const trials, seed = 6, 5
	res := ev.EvalConfig(cfg, trials, seed)
	src := stats.NewSource(seed)
	degraded := 0
	for tr := 0; tr < trials; tr++ {
		tseed := src.ForkSeed(uint64(tr) + 1)
		want := 0
		lsrc := stats.NewSource(tseed)
		for _, cl := range ev.Clustered() {
			st, _, err := RunTrialChecked(ctx, sparse.Must(EncodeLayer(cl, cfg)),
				cl.Indices, cl.Centroids, cfg, lsrc.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			want += st.DegradedBlocks
		}
		_, st, err := ev.EvalTrial(ctx, cfg, tseed)
		if err != nil {
			t.Fatal(err)
		}
		cst, err := ev.CorruptTrial(ctx, cfg, tseed)
		if err != nil {
			t.Fatal(err)
		}
		if st.DegradedBlocks != want || cst.DegradedBlocks != want || res.Stats[tr].DegradedBlocks != want {
			t.Errorf("trial %d: degraded blocks EvalTrial %d, CorruptTrial %d, EvalConfig %d; per-layer sum %d",
				tr, st.DegradedBlocks, cst.DegradedBlocks, res.Stats[tr].DegradedBlocks, want)
		}
		if st.Detected > 0 && st.DegradedBlocks == 0 {
			t.Errorf("trial %d: %d uncorrectable blocks detected, none degraded", tr, st.Detected)
		}
		degraded += want
	}
	if degraded == 0 {
		t.Fatal("fixture too mild: no trial degraded a block")
	}
}

// TestEvaluatorConcurrentEntryPoints runs every measuring entry point at
// once on one evaluator: EvalConfig, EvalTrial (all three routes),
// LifetimeTrial and the EvalTrialSerial oracle. The model is shared
// read-only, so under -race nothing may race, and every result must
// equal the same call made alone.
func TestEvaluatorConcurrentEntryPoints(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	csr := IsolateStream(Config{Tech: envm.CTT, Encoding: sparse.KindCSR},
		"rowcount", StreamPolicy{BPC: 3})
	cfgs := []Config{
		csr,
		{Tech: envm.CTT, Encoding: sparse.Kind24, Default: StreamPolicy{BPC: 3}},
		xbarCfg(crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.05, ADCBits: 8}),
	}
	lp := LifetimePolicy{Years: 10, EvalEpochs: 2}
	type out struct {
		cfgRes MeasuredResult
		trial  []float64
		serial []float64
		life   LifetimeStats
	}
	run := func(concurrent bool) out {
		var o out
		o.trial = make([]float64, len(cfgs))
		o.serial = make([]float64, len(cfgs))
		var wg sync.WaitGroup
		errs := make(chan error, 2*len(cfgs)+1)
		do := func(f func()) {
			if !concurrent {
				f()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
			}()
		}
		do(func() { o.cfgRes = ev.EvalConfig(csr, 3, 31) })
		do(func() {
			var err error
			o.life, err = ev.LifetimeTrial(ctx, csr, lp, 32)
			errs <- err
		})
		for i, cfg := range cfgs {
			do(func() {
				var err error
				o.trial[i], _, err = ev.EvalTrial(ctx, cfg, uint64(40+i))
				errs <- err
			})
			do(func() {
				var err error
				o.serial[i], _, err = ev.EvalTrialSerial(ctx, cfg, uint64(40+i))
				errs <- err
			})
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	want := run(false)
	got := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent results differ from sequential:\n got %+v\nwant %+v", got, want)
	}
	for i := range cfgs {
		if want.trial[i] != want.serial[i] {
			t.Errorf("cfg %d: replica delta %v != oracle %v", i, want.trial[i], want.serial[i])
		}
	}
}
