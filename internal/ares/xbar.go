package ares

import (
	"context"
	"errors"
	"time"

	"repro/internal/crossbar"
	"repro/internal/stats"
	"repro/internal/tensor"
)

var errNoCrossbar = errors.New("ares: config has no crossbar design point")

// The crossbar compute-in-memory trial route (EvalTrial with
// Config.Crossbar set).
//
// The storage routes model faults in *stored bits*: inject, decode,
// apply the decoded weights to digital kernels. Here the array IS the
// compute: each weight layer maps once to differential conductance
// pairs on fixed tiles (crossbar.Map), a trial programs that mapping
// with sampled variation and stuck-at faults, optionally runs the
// online tolerance loop (detect -> remap -> degrade), and the resulting
// effective weights run through the crossbar kernels — per-row-tile
// analog accumulation with per-column ADC quantization — as the trial's
// operand overlay on a checked-out replica.
//
// Baseline discipline follows the 2:4 route (direct24.go): the DAC
// snap of weights to programmed levels and the ADC quantization of the
// *pristine* mapping are static design losses, so the baseline is the
// pristine mapped model measured through exactly the kernels trials
// use. A trial's delta reports only fault damage. With BPC=0, ADC off,
// and all fault rates zero, the mapping is bit-identical to the
// clustered weights and the route reproduces the dense digital pass
// exactly (the determinism-parity acceptance test).
//
// Seed contract: per-layer seeds are drawn tsrc.Uint64() in layer
// order from stats.NewSource(seed), matching corruptStorage; within a
// layer, Program forks 1..3 (variation / stuck cells / stuck columns)
// and the scrubber draws from fork 4. The trial outcome is a pure
// function of (cfg, seed).

// xbarState is the pristine per-design-point crossbar state: one
// immutable mapping per weight layer plus the mapped base.
// Fault rates and the online policy do not affect it, so one state
// serves every campaign config sharing a tech + Config.MapKey (the
// evaluator caches by that key).
type xbarState struct {
	layers []*crossbar.Layer
	// base carries the mapped baseline error and no prefix: a trial
	// reprograms every analog layer, so its pass always starts at the
	// first layer.
	base base
}

// xbar builds (once per tech + mapping key) and returns the pristine
// crossbar state for cfg.
func (ev *MeasuredEvaluator) xbar(cfg Config) (*xbarState, error) {
	xc := *cfg.Crossbar
	key := cfg.Tech.Name + "|" + xc.MapKey()
	ev.xbarMu.Lock()
	defer ev.xbarMu.Unlock()
	if xs, ok := ev.xbarCache[key]; ok {
		met.cacheHits.Inc()
		return xs, nil
	}
	met.cacheMisses.Inc()
	start := time.Now()
	xs := &xbarState{layers: make([]*crossbar.Layer, len(ev.clustered))}
	for i, li := range ev.layerIdx {
		ly, err := crossbar.Map(ev.Model.Layers[li].Weights, xc, cfg.Tech)
		if err != nil {
			return nil, err
		}
		xs.layers[i] = ly
	}
	// Mapped baseline, measured through the same kernels the trials
	// use. With an ideal write DAC and no ADC the mapping is
	// bit-identical to the clustered snapshot, so the clustered
	// baseline carries over without an inference pass.
	if xc.BPC == 0 && xc.ADCBits == 0 {
		xs.base.err = ev.BaselineErr
	} else {
		ops := make([]tensor.Operand, len(xs.layers))
		for o, ly := range xs.layers {
			ops[o] = xbarOperand(ly.Pristine(), ly.PristineXbar())
		}
		xs.base = ev.newBase(ops, false)
	}
	met.encode.Since(start)
	ev.xbarCache[key] = xs
	return xs, nil
}

// XbarGeometry reports the deployed crossbar array geometry for cfg —
// total column segments and tiles summed over the weight layers — the
// inputs the online tolerance planner (mitigate.PlanOnline) sizes its
// threshold and budgets from.
func (ev *MeasuredEvaluator) XbarGeometry(cfg Config) (segments, tiles int, err error) {
	if cfg.Crossbar == nil {
		return 0, 0, errNoCrossbar
	}
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	xs, err := ev.xbar(cfg)
	if err != nil {
		return 0, 0, err
	}
	for _, ly := range xs.layers {
		segments += ly.Segments()
		tiles += ly.Tiles()
	}
	return segments, tiles, nil
}

// xbarOperand is the operand a mapped layer runs as: the crossbar
// kernels when the design has an ADC (x non-nil), else the dense
// kernels on the effective weights w.
func xbarOperand(w *tensor.Matrix, x *tensor.Xbar) tensor.Operand {
	if x != nil {
		return x
	}
	return w
}

// corruptXbar is the crossbar route step: it programs every layer's
// crossbar for one trial and runs the online tolerance loop when
// enabled. Each layer's payload is its effective-weight operand, and the
// statistics use the storage-route vocabulary: Faults = injected stuck
// devices + stuck column drivers, Detected = segments flagged online,
// Corrected = segments remapped to spares, DegradedBlocks = segments
// zeroed, StructFrac = fraction of weights zeroed by degradation,
// Mismatch = fraction of effective weights differing from the pristine
// mapping, ValueNSR = weight-space noise-to-signal vs the mapped
// baseline. A trial that perturbed no weight is pristine: its
// measurement would reproduce the mapped baseline exactly.
func (ev *MeasuredEvaluator) corruptXbar(ctx context.Context, cfg Config, seed uint64) (trial, error) {
	if err := cfg.Validate(); err != nil {
		return trial{}, err
	}
	xs, err := ev.xbar(cfg)
	if err != nil {
		return trial{}, err
	}
	xc := *cfg.Crossbar
	injectStart := time.Now()
	tsrc := stats.NewSource(seed)
	t := ev.newTrial(&xs.base)
	var zeroedW int
	for i, cl := range ev.clustered {
		lseed := tsrc.Uint64()
		if err := ctx.Err(); err != nil {
			return t, err
		}
		lt, err := xs.layers[i].NewTrial(xc)
		if err != nil {
			return t, err
		}
		lsrc := stats.NewSource(lseed)
		lt.Program(lsrc)
		if xc.Online() {
			lt.Online(lsrc.Fork(4))
		}
		t.layers[i].op = xbarOperand(lt.W, lt.Xbar())
		t.stats.addLayer(TrialStats{
			Faults:         lt.Stats.StuckCells + lt.Stats.StuckCols,
			Detected:       lt.Stats.Flagged,
			Corrected:      lt.Stats.Remapped,
			DegradedBlocks: lt.Stats.Zeroed,
			Mismatch:       lt.MismatchFrac(),
			ValueNSR:       lt.NSR(),
		}, len(cl.Indices))
		zeroedW += lt.Stats.ZeroedWeights
	}
	t.stats.finish(ev.totalWeights())
	t.stats.StructFrac = float64(zeroedW) / float64(ev.totalWeights())
	t.pristine = t.stats.Mismatch == 0
	met.inject.Since(injectStart)
	return t, nil
}
