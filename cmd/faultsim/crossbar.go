package main

// Crossbar compute-in-memory mode (-crossbar): instead of corrupting
// stored bits, each tile size maps the clustered weights onto
// differential conductance pairs and runs two campaigns — the bare
// array (programming variation + stuck-at faults, no tolerance) and
// the same array with online soft-error detection + remap scrubbing —
// printing a before/after table per tile size against the model's ITN
// bound. The detection threshold and remap budget come from
// mitigate.PlanOnline unless -detect-sigma pins the threshold.

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/ares"
	"repro/internal/campaign"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/mitigate"
)

// xbarDeployment is the deployment the online planner sizes budgets
// for: the model's own ITN bound over a 5-year deployment with the
// scrub scheduler's default endurance allowance.
func xbarDeployment(tech envm.Tech, m *dnn.Model, baselineErr float64) mitigate.Deployment {
	return mitigate.Deployment{
		Tech:          tech,
		LifetimeYears: 5,
		DeltaBound:    m.Meta.ErrorBound,
		Sens:          ares.Sensitivity(m.Name),
		Headroom:      ares.Headroom(m.Classes, baselineErr),
	}
}

// xbarCampaign runs one crossbar campaign config and returns its
// aggregate row.
func xbarCampaign(ctx context.Context, ev *ares.MeasuredEvaluator, cfg ares.Config,
	opt campaign.Options) (*campaign.ConfigResult, error) {
	run := func(ctx context.Context, t campaign.Trial) (campaign.Sample, error) {
		delta, st, err := ev.EvalTrial(ctx, cfg, t.Seed)
		if err != nil {
			return campaign.Sample{}, err
		}
		return campaign.Sample{
			Value: delta,
			Extra: map[string]float64{
				"faults":   float64(st.Faults),
				"detected": float64(st.Detected),
				"remapped": float64(st.Corrected),
				"zeroed":   float64(st.DegradedBlocks),
				"mismatch": st.Mismatch,
			},
		}, nil
	}
	label := cfg.String()
	c, err := campaign.New([]string{label}, run, opt)
	if err != nil {
		return nil, err
	}
	res, err := c.Run(ctx)
	if err != nil && (res == nil || !res.Interrupted) {
		return nil, err
	}
	return res.Config(label), nil
}

// runCrossbar is the -crossbar entry point: one before/after row per
// -tile size.
func runCrossbar(ctx context.Context, ev *ares.MeasuredEvaluator, m *dnn.Model,
	tech envm.Tech, xcfgs []crossbar.Config, planned bool, opt campaign.Options) {
	bound := m.Meta.ErrorBound
	dep := xbarDeployment(tech, m, ev.BaselineErr)
	if planned {
		fmt.Printf("crossbar: %d tile size(s); detection threshold and remap budget from the online planner (%.0f-year deployment, bound %.4f)\n",
			len(xcfgs), dep.LifetimeYears, bound)
	} else {
		fmt.Printf("crossbar: %d tile size(s); detection threshold pinned by -detect-sigma\n", len(xcfgs))
	}
	fmt.Printf("\n%-10s %6s %6s %7s %7s %18s %18s %11s %11s %9s\n",
		"tile", "segs", "tiles", "detect", "budget",
		"unmitigated", "mitigated", "remaps/map", "zeroed/map", "vs bound")
	start := time.Now()
	for _, xc := range xcfgs {
		// Before: the bare array — no detection, no remapping.
		bare := xc
		bare.DetectSigma, bare.MaxRemaps = 0, 0
		bareCfg := ares.Config{Tech: tech, Crossbar: &bare}
		segments, tiles, err := ev.XbarGeometry(bareCfg)
		if err != nil {
			log.Fatal(err)
		}

		// After: online tolerance, policy from the planner or the flag.
		mit := xc
		if planned {
			plan, err := mitigate.PlanOnline(dep, xc, segments, tiles)
			if err != nil {
				log.Fatal(err)
			}
			if !plan.Feasible {
				fmt.Printf("  %s: planner warning: %s\n", xc.String(), plan.Reason)
			}
			mit = plan.Apply(xc)
		}

		before, err := xbarCampaign(ctx, ev, bareCfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		// Every campaign after the first appends to the shared
		// -checkpoint file instead of truncating it (see runCompare).
		opt.Resume = true
		after, err := xbarCampaign(ctx, ev, ares.Config{Tech: tech, Crossbar: &mit}, opt)
		if err != nil {
			log.Fatal(err)
		}
		if before == nil || after == nil || before.N == 0 || after.N == 0 {
			fmt.Printf("%-10s (interrupted before any trial completed)\n", xc.String())
			if ctx.Err() != nil {
				break
			}
			continue
		}
		fmt.Printf("%-10s %6d %6d %6.2fσ %7d %8s%9s %8s%9s %11.1f %11.1f %9s\n",
			fmt.Sprintf("%dx%d", xc.Rows, xc.Cols), segments, tiles,
			mit.DetectSigma, mit.MaxRemaps,
			fmt.Sprintf("+%.4f", before.Mean), fmt.Sprintf("±%.4f", before.CIHalf),
			fmt.Sprintf("+%.4f", after.Mean), fmt.Sprintf("±%.4f", after.CIHalf),
			after.Extra["remapped"], after.Extra["zeroed"],
			verdict(after.Mean <= bound))
		for _, te := range append(before.Errors, after.Errors...) {
			fmt.Printf("  failed trial: %v\n", te)
		}
	}
	fmt.Printf("\n%d fault maps per cell, %.1fs total; ITN bound %.4f (unmitigated rows are diagnostic, the verdict scores the mitigated array)\n",
		opt.MaxTrials, time.Since(start).Seconds(), bound)
}
