package ares

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/crossbar"
	"repro/internal/tensor"
)

// The finite-operand guard. The tensor kernels run their dots without a
// zero-activation skip, which changes no bit only while every weight is
// finite (a skipped 0 * w term is ±0 for finite w, NaN for w = ±Inf).
// This test sweeps seeds over every trial route and checks every weight
// operand a measured pass runs.

// operandWeights returns the weight values op multiplies by.
func operandWeights(t *testing.T, op tensor.Operand) []float32 {
	t.Helper()
	switch w := op.(type) {
	case *tensor.Matrix:
		return w.Data
	case *tensor.Sparse24:
		return w.Val
	case *tensor.Xbar:
		return w.W.Data
	}
	t.Fatalf("unknown operand type %T", op)
	return nil
}

// assertFinite fails t if any value in w is NaN or infinite.
func assertFinite(t *testing.T, what string, w []float32) {
	t.Helper()
	for i, v := range w {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("%s: weight %d is %v", what, i, v)
		}
	}
}

// assertReplicaFinite checks the operand r's Forwarder runs for every
// weight layer: its overlay, or the model's own weights.
func assertReplicaFinite(t *testing.T, ev *MeasuredEvaluator, r *replica, what string) {
	t.Helper()
	for _, li := range ev.layerIdx {
		op := r.fw.Ops[li]
		if op == nil {
			op = ev.Model.Layers[li].Weights
		}
		assertFinite(t, what+" layer "+ev.Model.Layers[li].Name, operandWeights(t, op))
	}
}

func TestTrialOperandsFinite(t *testing.T) {
	ev := getMeasured(t)
	ctx := context.Background()
	routes := []struct {
		name string
		cfg  Config
	}{
		{"csr", csrValuesConfig()},
		{"2:4", values24Config()},
		{"crossbar online", xbarCfg(crossbar.Config{Rows: 32, Cols: 16, BPC: 2, VarSigma: 0.03,
			StuckRate: 1e-3, StuckColRate: 5e-3, ADCBits: 8, SpareCols: 2, DetectSigma: 4})},
	}
	r := ev.newReplica()
	for _, rt := range routes {
		for seed := uint64(1); seed <= 16; seed++ {
			tr, err := ev.corrupt(ctx, rt.cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			r.overlay(ev, tr)
			assertReplicaFinite(t, ev, r, rt.name)
			r.reset()
		}
	}

	// Lifetime with scrub: the epochs' operands are built inside
	// LifetimeTrial, so each epoch e is replayed as the final epoch of
	// a shorter deployment (epoch 0 is the unscrubbed one-epoch
	// deployment of the same age), measured on a replica this test
	// owns. Its private buffers start empty, so afterwards they hold
	// exactly what the replayed epochs overlaid.
	const interval, epochs = 2.5, 4
	cfg := csrValuesConfig()
	full := LifetimePolicy{Years: interval * epochs, ScrubIntervalYears: interval}
	buffers := 0
	for seed := uint64(1); seed <= 4; seed++ {
		want, err := ev.LifetimeTrial(ctx, cfg, full, seed)
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= epochs; e++ {
			lp := LifetimePolicy{Years: interval * float64(e), ScrubIntervalYears: interval}
			if e == 1 {
				lp = LifetimePolicy{Years: interval, EvalEpochs: 1}
			}
			r := ev.newReplica()
			var got LifetimeStats
			withPool(ev, 1, func() {
				ev.replicaSem <- struct{}{}
				ev.replicas <- r
				got, err = ev.LifetimeTrial(ctx, cfg, lp, seed)
			})
			if err != nil {
				t.Fatal(err)
			}
			last := got.Epochs[len(got.Epochs)-1]
			last.Epoch = e - 1
			if !reflect.DeepEqual(last, want.Epochs[e-1]) {
				t.Fatalf("seed %d: replayed epoch %d %+v != deployment epoch %+v", seed, e-1, last, want.Epochs[e-1])
			}
			assertReplicaFinite(t, ev, r, "lifetime")
			for i := range ev.clustered {
				if r.dense[i] != nil {
					assertFinite(t, "lifetime dense buffer", r.dense[i].Data)
					buffers++
				}
				if r.s24[i] != nil {
					assertFinite(t, "lifetime 2:4 buffer", r.s24[i].Val)
					buffers++
				}
			}
		}
	}
	if buffers == 0 {
		t.Fatal("no lifetime epoch overlaid a corrupted layer; the sweep checked nothing")
	}
}
