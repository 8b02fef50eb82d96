package main

import (
	"fmt"
	"time"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/exper"
	"repro/internal/train"
)

// newEvaluator builds the trained model and its measured evaluator the
// way every workload's program builds it: exper.Env.Measured.
func newEvaluator() (*exper.Env, *ares.MeasuredEvaluator, error) {
	env := exper.NewEnv(modelSeed)
	ev, err := env.Measured()
	return env, ev, err
}

// traceSetup splits one set-up into its training and evaluator parts
// (train.fit_s, ares.evaluator_s). It repeats the recipe of
// exper.Env.Measured step by step; the split is dropped when the
// rebuilt evaluator's baseline differs from want's, since then the
// recipe no longer matches the program's.
func traceSetup(b *bench, want *ares.MeasuredEvaluator, setupS float64, extra string) {
	if !b.trace {
		return
	}
	var fits, evs []float64
	for i := 0; i < setupReps; i++ {
		s := uint64(modelSeed)
		t0 := time.Now()
		trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: s + 10, ProtoSeed: 77})
		testDS := train.Synthesize(train.SynthConfig{N: 300, Seed: s + 11, ProtoSeed: 77})
		m := dnn.TinyCNN()
		m.InitWeights(s + 42)
		if _, err := train.Train(m, trainDS, train.Config{Epochs: 6, Seed: s + 1}); err != nil {
			b.check(false, "traced set-up: train: %v", err)
			return
		}
		t1 := time.Now()
		ev, err := ares.NewMeasuredEvaluator(m, testDS, s+5)
		if err != nil {
			b.check(false, "traced set-up: evaluator: %v", err)
			return
		}
		t2 := time.Now()
		if ev.BaselineErr != want.BaselineErr {
			b.skip("set-up recipe diverged from exper.Env.Measured", "train.fit_s", "ares.evaluator_s")
			return
		}
		b.tr.add("train.fit", fmt.Sprintf("setup%d", i), -1, t0, t1)
		b.tr.add("ares.evaluator", fmt.Sprintf("setup%d", i), -1, t1, t2)
		fits = append(fits, t1.Sub(t0).Seconds())
		evs = append(evs, t2.Sub(t1).Seconds())
	}
	fit, evS := median(fits), median(evs)
	b.layer("train.fit_s", "s", fit, len(fits))
	b.layer("ares.evaluator_s", "s", evS, len(evs))
	b.printf("  accounting: setup_s %.4f = train.fit_s + ares.evaluator_s%s + residual %.4f s",
		setupS, extra, setupS-fit-evS)
}
