package main

// Workload corrupted: one campaign (Workers=nproc, no checkpoint) over
// three configurations whose every trial pays inference: CSR values
// MLC3 (decode-to-dense route), 2:4 values MLC3 (compute-direct route)
// and a 64x32 crossbar with variation, stuck columns, an 8-bit ADC and
// the mitigate.PlanOnline-planned online loop. The trial counts give
// each route about a third of a round's time. Inference, the replica
// pool, the tensor kernels and crossbar programming do nearly all the
// work; campaign, fleet and storage-side changes should not move it.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/mitigate"
	"repro/internal/sparse"
)

// corruptedCounts are the per-round trial counts of the CSR, 2:4 and
// crossbar configs, in that order.
var corruptedCounts = [3]int{120, 210, 60}

// corruptedReplays is how many trials are replayed one at a time.
const corruptedReplays = 60

type corruptedSetup struct {
	ev   *ares.MeasuredEvaluator
	cfgs [3]ares.Config
	plan mitigate.OnlinePlan
}

func runCorrupted(b *bench) error {
	ctx := background
	st, setupS, err := medianSetup(func() (corruptedSetup, error) {
		_, ev, err := newEvaluator()
		if err != nil {
			return corruptedSetup{}, err
		}
		return planCorrupted(ev)
	}, nil)
	if err != nil {
		return err
	}
	n := runtime.GOMAXPROCS(0)
	labels := make([]string, 3)
	byLabel := map[string]ares.Config{}
	for i, c := range st.cfgs {
		labels[i] = c.String()
		byLabel[labels[i]] = c
	}
	b.printf("corrupted: configs %q x %v trials per round, campaign Workers=%d; online plan detect %.2f sigma, %d remaps/epoch (feasible %v)",
		labels, corruptedCounts, n, st.plan.DetectSigma, st.plan.MaxRemaps, st.plan.Feasible)
	b.e2e("setup_s", "s", setupS, setupReps)

	nRound := 0
	runRound := func(tr *tracer) (*round, error) {
		nRound++
		return corruptedRunRound(ctx, b, tr, st.ev, byLabel, labels, newRNG(b.seed, uint64(nRound)).Uint64(), n)
	}
	rounds, err := measureRounds(nil, b.phaseSeconds(), runRound)
	if err != nil {
		return err
	}
	rate, trials, fast := summarize(rounds)
	b.e2e("trials_per_s", "1/s", median(rate), len(rate))
	b.printf("  (%d trials per round, median of %d rounds %s; fast-path share %.4f)",
		corruptedCounts[0]+corruptedCounts[1]+corruptedCounts[2], len(rate), fmtRates(rate), fast)
	b.check(fast < 0.05, "corrupted: fast-path share %.4f, want < 0.05", fast)

	last := rounds[len(rounds)-1]
	r := newRNG(b.seed, 1<<20)
	total := corruptedCounts[0] + corruptedCounts[1] + corruptedCounts[2]
	for i := 0; i < corruptedReplays; i++ {
		// A uniform draw over the round's trials, so the replays mix
		// the routes as the campaign does.
		c, idx := 0, r.Intn(total)
		for idx >= corruptedCounts[c] {
			idx -= corruptedCounts[c]
			c++
		}
		seed := campaign.TrialSeed(last.base, labels[c], idx)
		delta, s, err := st.ev.EvalTrial(ctx, st.cfgs[c], seed)
		if err != nil {
			return fmt.Errorf("replay %s#%d: %w", labels[c], idx, err)
		}
		if got, want := outcomeOf(delta, s), last.rc.outcomes[trialKey{labels[c], idx}]; !sameOutcome(got, want, true) {
			b.check(false, "corrupted replay %s#%d: EvalTrial %+v, campaign recorded %+v", labels[c], idx, got, want)
			break
		}
	}
	b.ops(trials+corruptedReplays, 0)

	if !b.trace {
		return nil
	}
	b.tr = newTracer()
	traced, err := measureRounds(b.tr, b.phaseSeconds(), runRound)
	if err != nil {
		return err
	}
	trate, ttrials, tfast := summarize(traced)
	b.ops(ttrials, 0)
	b.printf("traced phase: trials_per_s %.2f (untraced %.2f)", median(trate), median(rate))
	b.layer("trace.overhead_frac", "ratio", 1-median(trate)/median(rate), len(trate))
	traceSetup(b, st.ev, setupS, " + crossbar plan")

	spans := b.tr.snapshot()
	runs := durMS(named(spans, "campaign.run"))
	b.layer("campaign.trial_p50_ms", "ms", quantile(runs, 0.5), len(runs))
	b.layer("campaign.trial_p99_ms", "ms", quantile(runs, 0.99), len(runs))
	b.layer("campaign.busy_frac", "ratio", busyFrac(traced, n), len(traced))
	b.layer("ares.fasthit_frac", "ratio", tfast, ttrials)
	route := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "ares.EvalTrial" {
			label := s.ID[:strings.LastIndexByte(s.ID, '#')]
			route[label] = append(route[label], ms(s.dur()))
		}
	}
	for i, name := range routeMetrics {
		v := route[labels[i]]
		b.layer(name, "ms", mean(v), len(v))
	}

	lastT := traced[len(traced)-1]
	var probes []probeTrial
	for k := 0; k < 20; k++ {
		for c := 0; c < 2; c++ {
			probes = append(probes, probeTrial{cfg: c, seed: campaign.TrialSeed(lastT.base, labels[c], k)})
		}
	}
	corruptProbe(b, st.ev, st.cfgs[:2], probes)
	var xseeds []uint64
	want := map[uint64]outcome{}
	for k := 0; k < 20; k++ {
		seed := campaign.TrialSeed(lastT.base, labels[2], k)
		xseeds = append(xseeds, seed)
		want[seed] = lastT.rc.outcomes[trialKey{labels[2], k}]
	}
	crossbarProbe(b, st.ev, st.cfgs[2], xseeds, want)
	kernelReplay(b, st.ev)
	storage := (mean(route[labels[0]])*float64(corruptedCounts[0]) + mean(route[labels[1]])*float64(corruptedCounts[1])) /
		float64(corruptedCounts[0]+corruptedCounts[1])
	cm := b.res.Metrics["ares.corrupt_ms"].Value + b.res.Metrics["ares.measure_ms"].Value
	b.printf("  accounting: storage-route EvalTrial mean %.4f ms (nproc in flight) = ares.corrupt_ms + ares.measure_ms (serial) %.4f + residual %.4f ms",
		storage, cm, storage-cm)
	b.skip("corrupted runs one plain campaign, no fleet", fleetMetrics...)
	return serveLayerProbe(b, st.ev, serveProbeSeconds)
}

// planCorrupted builds the three configs; the crossbar's online loop is
// sized by mitigate.PlanOnline from the deployed geometry, as faultsim
// -crossbar does.
func planCorrupted(ev *ares.MeasuredEvaluator) (corruptedSetup, error) {
	csr := ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR}, "values", ares.StreamPolicy{BPC: 3})
	t24 := ares.IsolateStream(ares.Config{Tech: envm.CTT, Encoding: sparse.Kind24}, "values", ares.StreamPolicy{BPC: 3})
	xc := crossbar.Config{Rows: 64, Cols: 32, VarSigma: 0.02, StuckColRate: 5e-3, ADCBits: 8, SpareCols: 4}
	segments, tiles, err := ev.XbarGeometry(ares.Config{Tech: envm.CTT, Crossbar: &xc})
	if err != nil {
		return corruptedSetup{}, err
	}
	dep := mitigate.Deployment{
		Tech:          envm.CTT,
		LifetimeYears: 5,
		DeltaBound:    ev.Model.Meta.ErrorBound,
		Sens:          ares.Sensitivity(ev.Model.Name),
		Headroom:      ares.Headroom(ev.Model.Classes, ev.BaselineErr),
	}
	plan, err := mitigate.PlanOnline(dep, xc, segments, tiles)
	if err != nil {
		return corruptedSetup{}, err
	}
	mit := plan.Apply(xc)
	xbar := ares.Config{Tech: envm.CTT, Crossbar: &mit}
	for _, c := range []ares.Config{csr, t24, xbar} {
		if err := c.Validate(); err != nil {
			return corruptedSetup{}, err
		}
	}
	return corruptedSetup{ev: ev, cfgs: [3]ares.Config{csr, t24, xbar}, plan: plan}, nil
}

func corruptedRunRound(ctx context.Context, b *bench, tr *tracer, ev *ares.MeasuredEvaluator,
	byLabel map[string]ares.Config, labels []string, base uint64, n int) (*round, error) {
	rc := newRecorder(false)
	run := rc.wrap(tr, func(ctx context.Context, t campaign.Trial, parent int) (campaign.Sample, outcome, error) {
		cfg := byLabel[t.Config]
		id := ""
		if tr != nil {
			id = fmt.Sprintf("%s#%d", t.Config, t.Index)
		}
		sp := tr.begin("ares.EvalTrial", id, parent)
		delta, st, err := ev.EvalTrial(ctx, cfg, t.Seed)
		tr.end(sp)
		if err != nil {
			return campaign.Sample{}, outcome{}, err
		}
		return campaign.Sample{Value: delta, Extra: map[string]float64{
			"faults": float64(st.Faults), "mismatch": st.Mismatch,
		}}, outcomeOf(delta, st), nil
	})
	maxT := 0
	spans := make([]campaign.Span, 3)
	for i, l := range labels {
		spans[i] = campaign.Span{Config: l, Lo: 0, Hi: corruptedCounts[i]}
		maxT = max(maxT, corruptedCounts[i])
	}
	c, err := campaign.New(labels, run, campaign.Options{Seed: base, MaxTrials: maxT, Workers: n, Spans: spans})
	if err != nil {
		return nil, err
	}
	sp := tr.begin("campaign.Run", "round", -1)
	start := time.Now()
	res, err := c.Run(withSpan(ctx, sp))
	wall := time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for i, cr := range res.Configs {
		b.check(cr.N == int64(corruptedCounts[i]) && len(cr.Errors) == 0,
			"corrupted: config %q has n=%d (want %d), %d errors", cr.Config, cr.N, corruptedCounts[i], len(cr.Errors))
	}
	b.check(rc.failed == 0, "corrupted: %d trials failed", rc.failed)
	return &round{base: base, rc: rc, wall: wall, work: wall}, nil
}
