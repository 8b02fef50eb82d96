package mitigate

import (
	"fmt"
	"math"

	"repro/internal/ares"
	"repro/internal/envm"
)

// Deployment describes the lifetime scenario the scrub scheduler plans
// for.
type Deployment struct {
	Tech envm.Tech
	// LifetimeYears is the required deployment lifetime.
	LifetimeYears float64
	// DeltaBound is the iso-training-noise accuracy bound: the largest
	// tolerable classification-error increase.
	DeltaBound float64
	// Sens and Headroom parameterize the surrogate error model for the
	// deployed network (ares.Sensitivity / ares.Headroom).
	Sens, Headroom float64
	// MaxEnduranceFrac caps the writes the scrubber may spend, as a
	// fraction of Tech.EnduranceCycles (default 0.1: scrubbing should
	// not meaningfully age the cells it protects).
	MaxEnduranceFrac float64
	// MaxEpochs bounds the schedule to a simulable number of scrub
	// epochs (default 64).
	MaxEpochs int
}

func (d Deployment) withDefaults() Deployment {
	if d.MaxEnduranceFrac == 0 {
		d.MaxEnduranceFrac = 0.1
	}
	if d.MaxEpochs == 0 {
		d.MaxEpochs = 64
	}
	return d
}

// Validate rejects non-physical deployments.
func (d Deployment) Validate() error {
	if math.IsNaN(d.LifetimeYears) || d.LifetimeYears <= 0 {
		return fmt.Errorf("mitigate: lifetime %v years must be positive", d.LifetimeYears)
	}
	if math.IsNaN(d.DeltaBound) || d.DeltaBound <= 0 {
		return fmt.Errorf("mitigate: delta bound %v must be positive", d.DeltaBound)
	}
	if d.Sens <= 0 || d.Headroom <= 0 {
		return fmt.Errorf("mitigate: surrogate sens %v / headroom %v must be positive", d.Sens, d.Headroom)
	}
	if d.MaxEnduranceFrac < 0 || d.MaxEnduranceFrac > 1 {
		return fmt.Errorf("mitigate: endurance fraction %v outside [0,1]", d.MaxEnduranceFrac)
	}
	return nil
}

// PredictDelta is the scheduler's objective: the surrogate-predicted
// classification-error delta of the planned configuration after `years`
// of unscrubbed drift. Per stream, the expected number of uncorrectable
// fault events comes from the drift-widened fault map (ECC residuals at
// the plan's block size); each event contributes the stream's measured
// per-event damage, doubled for protected streams because the residual
// events are >=2-fault blocks.
func PredictDelta(ranks []StreamRank, pl Plan, tech envm.Tech, sens, headroom, years float64) float64 {
	var x float64
	for _, r := range ranks {
		pol, ok := pl.Policies[r.Name]
		if !ok {
			pol = ares.StreamPolicy{BPC: r.BPC}
		}
		if pol.BPC == 0 {
			continue
		}
		sc := envm.StoreConfig{Tech: tech, BPC: pol.BPC, Gray: pol.ECC, RetentionYears: years}
		lambda := ares.LambdaEff(r.DataBits, sc, pol.ECC, pl.BlockBits)
		d := r.DamagePerEvent
		if pol.ECC {
			d *= 2
		}
		x += lambda * d
	}
	return ares.DeltaError(sens, headroom, x, 0)
}

// ScrubPlan is the scheduler's decision.
type ScrubPlan struct {
	// IntervalYears is the chosen rewrite period (0 = no scrubbing
	// needed: the bound holds for the whole lifetime unrefreshed).
	IntervalYears float64
	// Epochs and Rewrites describe the implied schedule over the
	// lifetime (Rewrites = Epochs - 1: the final epoch ends the
	// deployment).
	Epochs, Rewrites int
	// EnduranceFrac is the fraction of the tech's endurance the schedule
	// spends (writes / EnduranceCycles; 0 when the tech reports no
	// endurance limit).
	EnduranceFrac float64
	// PredictedDelta is the surrogate delta at the scrub interval — the
	// worst age the store reaches between rewrites. NoScrubDelta is the
	// delta at full lifetime without refresh, for comparison.
	PredictedDelta, NoScrubDelta float64
	// ScrubNeeded reports whether refresh is required at all; Feasible
	// whether the chosen schedule is predicted to hold the bound within
	// the endurance and epoch caps. Reason explains a false Feasible.
	ScrubNeeded, Feasible bool
	Reason                string
}

// PlanScrub finds the longest scrub interval that keeps the predicted
// error delta of the planned configuration under the deployment's ITN
// bound, subject to the endurance budget and the epoch cap. PredictDelta
// is non-decreasing in age (retention drift only widens margins), so a
// bisection over the storage age suffices.
func PlanScrub(dep Deployment, ranks []StreamRank, pl Plan) (ScrubPlan, error) {
	dep = dep.withDefaults()
	if err := dep.Validate(); err != nil {
		return ScrubPlan{}, err
	}
	if len(ranks) == 0 {
		return ScrubPlan{}, fmt.Errorf("mitigate: no ranked streams to schedule over")
	}
	predict := func(age float64) float64 {
		return PredictDelta(ranks, pl, dep.Tech, dep.Sens, dep.Headroom, age)
	}
	sp := ScrubPlan{NoScrubDelta: predict(dep.LifetimeYears)}
	met.scrubPlans.Inc()

	if sp.NoScrubDelta <= dep.DeltaBound {
		// Write once, hold the bound for the whole lifetime.
		sp.Epochs = 1
		sp.Feasible = true
		sp.PredictedDelta = sp.NoScrubDelta
		sp.EnduranceFrac = enduranceFrac(1, dep.Tech)
		return sp, nil
	}
	sp.ScrubNeeded = true
	if writeTime := predict(0); writeTime > dep.DeltaBound {
		sp.PredictedDelta = writeTime
		sp.Reason = fmt.Sprintf("write-time delta %.4g already exceeds the %.4g bound: scrubbing cannot help, protection must change", writeTime, dep.DeltaBound)
		return sp, nil
	}

	// Longest age with predict(age) <= bound: bisect (0, lifetime).
	lo, hi := 0.0, dep.LifetimeYears
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if predict(mid) <= dep.DeltaBound {
			lo = mid
		} else {
			hi = mid
		}
	}
	interval := lo

	// Epoch cap: scrubbing more often than the cap allows is a planning
	// failure, not a schedule.
	minInterval := dep.LifetimeYears / float64(dep.MaxEpochs)
	if interval < minInterval {
		sp.IntervalYears = minInterval
		sp.Epochs = dep.MaxEpochs
		sp.Rewrites = sp.Epochs - 1
		sp.EnduranceFrac = enduranceFrac(sp.Epochs, dep.Tech)
		sp.PredictedDelta = predict(minInterval)
		sp.Reason = fmt.Sprintf("bound requires scrubbing every %.3g years, below the %d-epoch cap (%.3g years)", interval, dep.MaxEpochs, minInterval)
		return sp, nil
	}

	epochs := int(math.Ceil(dep.LifetimeYears / interval))
	if epochs < 1 {
		epochs = 1
	}
	// Endurance budget: writes = initial program + rewrites = epochs.
	if dep.Tech.EnduranceCycles > 0 {
		maxWrites := dep.MaxEnduranceFrac * dep.Tech.EnduranceCycles
		if float64(epochs) > maxWrites {
			epochs = int(maxWrites)
			if epochs < 1 {
				sp.Reason = "endurance budget forbids even the initial program"
				return sp, nil
			}
			interval = dep.LifetimeYears / float64(epochs)
			sp.IntervalYears = interval
			sp.Epochs = epochs
			sp.Rewrites = epochs - 1
			sp.EnduranceFrac = enduranceFrac(epochs, dep.Tech)
			sp.PredictedDelta = predict(interval)
			sp.Feasible = sp.PredictedDelta <= dep.DeltaBound
			if !sp.Feasible {
				sp.Reason = fmt.Sprintf("endurance budget caps scrubbing at every %.3g years; predicted delta %.4g exceeds the %.4g bound", interval, sp.PredictedDelta, dep.DeltaBound)
			}
			return sp, nil
		}
	}
	// Recompute the interval from the integral epoch count so the last
	// epoch is never longer than the verified age.
	interval = dep.LifetimeYears / float64(epochs)
	sp.IntervalYears = interval
	sp.Epochs = epochs
	sp.Rewrites = epochs - 1
	sp.EnduranceFrac = enduranceFrac(epochs, dep.Tech)
	sp.PredictedDelta = predict(interval)
	sp.Feasible = sp.PredictedDelta <= dep.DeltaBound
	if !sp.Feasible {
		sp.Reason = fmt.Sprintf("predicted delta %.4g at the %.3g-year interval exceeds the %.4g bound", sp.PredictedDelta, interval, dep.DeltaBound)
	}
	return sp, nil
}

func enduranceFrac(writes int, tech envm.Tech) float64 {
	if tech.EnduranceCycles <= 0 {
		return 0
	}
	return float64(writes) / tech.EnduranceCycles
}

// Policy converts a scrub plan into the ares lifetime policy that
// simulates it, with the deployment's ITN bound as the accuracy floor.
func (sp ScrubPlan) Policy(dep Deployment) ares.LifetimePolicy {
	lp := ares.LifetimePolicy{Years: dep.LifetimeYears, FloorDelta: dep.DeltaBound}
	if sp.ScrubNeeded && sp.IntervalYears > 0 {
		lp.ScrubIntervalYears = sp.IntervalYears
	}
	return lp
}
