package mitigate_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/envm"
	"repro/internal/mitigate"
)

func onlineDep() mitigate.Deployment {
	return mitigate.Deployment{Tech: envm.CTT, LifetimeYears: 5, DeltaBound: 0.05,
		Sens: 1, Headroom: 0.05, MaxEnduranceFrac: 0.1, MaxEpochs: 64}
}

// TestPlanOnlineFeasible: a well-spared, low-fault design gets a
// sane threshold and a usable budget.
func TestPlanOnlineFeasible(t *testing.T) {
	xc := crossbar.Config{Rows: 32, Cols: 16, VarSigma: 0.05, StuckColRate: 1e-3, SpareCols: 4}
	plan, err := mitigate.PlanOnline(onlineDep(), xc, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("plan infeasible: %s", plan.Reason)
	}
	if plan.DetectSigma < 1 {
		t.Fatalf("detect sigma %v below the 1-sigma floor", plan.DetectSigma)
	}
	if plan.TotalSpares != 64*4 {
		t.Fatalf("TotalSpares = %d, want %d", plan.TotalSpares, 64*4)
	}
	if plan.MaxRemaps < 1 || plan.MaxRemaps > plan.TotalSpares {
		t.Fatalf("remap budget %d outside (0, %d]", plan.MaxRemaps, plan.TotalSpares)
	}
	// The threshold's purpose: residual false alarms stay a small
	// fraction of the remap budget.
	if plan.ExpectedFalseAlarms > 0.1*float64(plan.MaxRemaps)+1e-9 {
		t.Fatalf("expected false alarms %v exceed the alarm budget for %d rewrites",
			plan.ExpectedFalseAlarms, plan.MaxRemaps)
	}
	applied := plan.Apply(xc)
	if applied.DetectSigma != plan.DetectSigma || applied.MaxRemaps != plan.MaxRemaps {
		t.Fatalf("Apply did not copy the policy: %+v", applied)
	}
	if applied.Rows != xc.Rows || applied.SpareCols != xc.SpareCols {
		t.Fatalf("Apply clobbered the design point: %+v", applied)
	}
}

// TestPlanOnlineInfeasible covers the three refusal classes: no
// spares, overwhelming fault workload, and an endurance budget too
// tight to rewrite even one column per epoch.
func TestPlanOnlineInfeasible(t *testing.T) {
	dep := onlineDep()
	noSpares := crossbar.Config{Rows: 32, Cols: 16, StuckColRate: 1e-3}
	plan, err := mitigate.PlanOnline(dep, noSpares, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible || !strings.Contains(plan.Reason, "spare") {
		t.Fatalf("no-spare plan: feasible=%v reason=%q", plan.Feasible, plan.Reason)
	}

	swamped := crossbar.Config{Rows: 32, Cols: 16, StuckColRate: 0.9, SpareCols: 1}
	plan, err = mitigate.PlanOnline(dep, swamped, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible {
		t.Fatalf("0.9 stuck-column rate declared feasible: %+v", plan)
	}
	if plan.ExpectedStuckCols < 3000 {
		t.Fatalf("expected stuck columns %v for 4096 segments at rate 0.9", plan.ExpectedStuckCols)
	}

	tight := dep
	tight.MaxEnduranceFrac = 1e-3
	tight.MaxEpochs = 1 << 20 // amortize 10 writes over a million epochs
	plan, err = mitigate.PlanOnline(tight, crossbar.Config{Rows: 32, Cols: 16, SpareCols: 4}, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Feasible || !strings.Contains(plan.Reason, "endurance") {
		t.Fatalf("endurance-starved plan: feasible=%v reason=%q", plan.Feasible, plan.Reason)
	}

	if _, err := mitigate.PlanOnline(dep, crossbar.Config{Rows: 0, Cols: 16}, 512, 64); err == nil {
		t.Fatal("invalid crossbar config accepted")
	}
	if _, err := mitigate.PlanOnline(dep, crossbar.Config{Rows: 32, Cols: 16}, 0, 64); err == nil {
		t.Fatal("empty deployment accepted")
	}
}

// TestPlanOnlineEnduranceAmortization: the rewrite budget scales with
// the endurance allowance and the epoch count, and EnduranceFrac
// reports the worst-case spend under the cap.
func TestPlanOnlineEnduranceAmortization(t *testing.T) {
	dep := onlineDep() // CTT: 1e4 cycles, defaults 0.1 frac / 64 epochs
	xc := crossbar.Config{Rows: 32, Cols: 16, SpareCols: 100}
	plan, err := mitigate.PlanOnline(dep, xc, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	// 0.1 * 1e4 / 64 = 15.6 -> 15 rewrites per epoch.
	if plan.MaxRemaps != 15 {
		t.Fatalf("remap budget %d, want 15 from endurance amortization", plan.MaxRemaps)
	}
	if plan.EnduranceFrac <= 0 || plan.EnduranceFrac > dep.MaxEnduranceFrac+1e-12 {
		t.Fatalf("EnduranceFrac %v outside (0, %v]", plan.EnduranceFrac, dep.MaxEnduranceFrac)
	}

	looser := dep
	looser.MaxEpochs = 8
	plan2, err := mitigate.PlanOnline(looser, xc, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.MaxRemaps <= plan.MaxRemaps {
		t.Fatalf("fewer epochs must loosen the per-epoch budget: %d vs %d", plan2.MaxRemaps, plan.MaxRemaps)
	}
}

// TestOnlineAcceptance is the seed-pinned acceptance criterion for the
// crossbar route: at a paper-plausible design point (programming sigma
// from the MLC-CTT level model, a harsh stuck-column rate) the
// unmitigated array violates the accuracy bound, and the same array
// with online detection + remap scrubbing — policy sized by
// PlanOnline — holds the bound within the endurance budget.
func TestOnlineAcceptance(t *testing.T) {
	ev, _ := getFixture(t)
	ctx := context.Background()
	sigma, err := crossbar.DeriveSigma(envm.CTT)
	if err != nil {
		t.Fatal(err)
	}
	base := crossbar.Config{Rows: 32, Cols: 16, VarSigma: sigma, StuckColRate: 0.05}
	const bound = 0.05
	seeds := []uint64{41, 42, 43, 44}

	mean := func(xc crossbar.Config) (float64, ares.TrialStats) {
		var sum float64
		var agg ares.TrialStats
		for _, seed := range seeds {
			d, st, err := ev.EvalTrial(ctx, ares.Config{Tech: envm.CTT, Crossbar: &xc}, seed)
			if err != nil {
				t.Fatal(err)
			}
			sum += d
			agg.Faults += st.Faults
			agg.Detected += st.Detected
			agg.Corrected += st.Corrected
			agg.DegradedBlocks += st.DegradedBlocks
		}
		return sum / float64(len(seeds)), agg
	}

	unmit, uStats := mean(base)
	if unmit <= bound {
		t.Fatalf("unmitigated delta %.4f within the %.2f bound; design point too easy to demonstrate mitigation", unmit, bound)
	}
	if uStats.Detected != 0 || uStats.Corrected != 0 {
		t.Fatalf("online loop ran without a detection threshold: %+v", uStats)
	}

	spared := base
	spared.SpareCols = 4
	segments, tiles, err := ev.XbarGeometry(ares.Config{Tech: envm.CTT, Crossbar: &spared})
	if err != nil {
		t.Fatal(err)
	}
	// A 5% stuck-column rate needs ~20 remaps per epoch across the
	// deployed arrays; amortizing the endurance allowance over 32 scrub
	// epochs (instead of the default 64) buys that budget.
	dep := onlineDep()
	dep.MaxEpochs = 32
	plan, err := mitigate.PlanOnline(dep, spared, segments, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Feasible {
		t.Fatalf("planner declared the spared design infeasible: %s", plan.Reason)
	}

	mit, mStats := mean(plan.Apply(spared))
	if mit > bound {
		t.Fatalf("mitigated delta %.4f violates the %.2f bound (unmitigated %.4f, plan %+v)",
			mit, bound, unmit, plan)
	}
	if mStats.Corrected == 0 {
		t.Fatal("mitigation never remapped a column; the bound held by luck")
	}
	if mStats.Detected < mStats.Corrected {
		t.Fatalf("corrected %d > detected %d", mStats.Corrected, mStats.Detected)
	}
	t.Logf("acceptance: unmitigated %.4f -> mitigated %.4f (bound %.2f; detect sigma %.2f, remap budget %d)",
		unmit, mit, bound, plan.DetectSigma, plan.MaxRemaps)
}
