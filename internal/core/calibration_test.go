package core

import (
	"testing"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/train"
)

// TestSurrogateOrderingMatchesMeasured is the surrogate's calibration
// check (DESIGN.md section 6): on a trained TinyCNN, the explorer's
// scoring path — ProfileLayer probes, the layer-damage builder and
// Evaluate — must rank storage configurations in the same order as real
// fault-injected inference.
func TestSurrogateOrderingMatchesMeasured(t *testing.T) {
	trainDS := train.Synthesize(train.SynthConfig{N: 600, Seed: 10, ProtoSeed: 77})
	testDS := train.Synthesize(train.SynthConfig{N: 200, Seed: 11, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(42)
	if _, err := train.Train(m, trainDS, train.Config{Epochs: 6, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ev, err := ares.NewMeasuredEvaluator(m, testDS, 5)
	if err != nil {
		t.Fatal(err)
	}

	// The explorer scores the evaluator's own clustered layers at full
	// scale, against the measured clustered baseline.
	meta := m.Meta
	meta.BaselineError = ev.BaselineErr
	pm := &PreparedModel{Model: &dnn.Model{Name: m.Name, Classes: m.Classes, Meta: meta}}
	for i, l := range m.WeightLayers() {
		cl := ev.Clustered()[i]
		pm.Layers = append(pm.Layers, PreparedLayer{Name: l.Name, FullRows: cl.Rows, FullCols: cl.Cols, CL: cl, Scale: 1})
	}
	ex := NewExplorer(pm, ProfileOptions{Seed: 1})

	policies := []ares.StreamPolicy{{BPC: 1}, {BPC: 3, ECC: true}, {BPC: 3}}
	var measured, surrogate []float64
	for _, p := range policies {
		cfg := ares.Config{Tech: envm.CTT, Encoding: sparse.KindCSR, Default: p}
		measured = append(measured, ev.EvalConfig(cfg, 6, 21).MeanDeltaErr)
		all := map[string]ares.StreamPolicy{}
		for _, name := range sparse.KindCSR.Streams() {
			all[name] = p
		}
		surrogate = append(surrogate, ex.Evaluate(envm.CTT, sparse.KindCSR, all).DeltaErr)
	}
	// SLC < ECC-protected MLC3 < raw MLC3 in both rankings.
	for _, vals := range [][]float64{measured, surrogate} {
		if !(vals[0] <= vals[1]+1e-9 && vals[1] <= vals[2]+1e-9) {
			t.Errorf("ordering violated: %v (measured=%v surrogate=%v)", vals, measured, surrogate)
		}
	}
	// Raw MLC3 must be clearly bad in both.
	if measured[2] < 0.02 {
		t.Errorf("measured raw MLC3 delta %.4f unexpectedly benign", measured[2])
	}
	if surrogate[2] < 0.02 {
		t.Errorf("surrogate raw MLC3 delta %.4f unexpectedly benign", surrogate[2])
	}
	t.Logf("measured %.5f, surrogate %.5f", measured, surrogate)
}
