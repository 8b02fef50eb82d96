// Deeply-embedded scenario with *measured* accuracy: train a small
// convnet (an always-on keyword/gesture-detector stand-in) on a synthetic
// task, prune + cluster it, store the encoded weights in fault-prone
// MLC-CTT, and verify with real fault-injected inference that the chosen
// configuration keeps classification error within the iso-training-noise
// bound — while an unprotected configuration visibly fails.
//
//	go run ./examples/iot-keyword
package main

import (
	"fmt"
	"log"

	"repro/internal/ares"
	"repro/internal/dnn"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/train"
)

func main() {
	fmt.Println("Training TinyCNN on the synthetic 10-class task...")
	trainDS := train.Synthesize(train.SynthConfig{N: 800, Seed: 10, ProtoSeed: 77})
	testDS := train.Synthesize(train.SynthConfig{N: 300, Seed: 11, ProtoSeed: 77})
	m := dnn.TinyCNN()
	m.InitWeights(42)
	if _, err := train.Train(m, trainDS, train.Config{Epochs: 8, Seed: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trained accuracy: %.1f%%\n", 100*train.Accuracy(m, testDS))

	// Prune + cluster (the evaluator applies the optimized weights and
	// measures the new baseline).
	ev, err := ares.NewMeasuredEvaluator(m, testDS, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  after pruning (60%%) + 4-bit clustering: %.1f%% accuracy\n", 100*(1-ev.BaselineErr))

	const trials = 20
	show := func(label string, cfg ares.Config) ares.MeasuredResult {
		res := ev.EvalConfig(cfg, trials, 99)
		fmt.Printf("  %-44s mean +%.4f  worst +%.4f\n", label, res.MeanDeltaErr, res.MaxDeltaErr)
		return res
	}

	fmt.Printf("\nMeasured error increase over %d fault maps (MLC-CTT):\n", trials)
	bad := show("BitMask, everything at MLC3, unprotected:",
		ares.Config{Tech: envm.CTT, Encoding: sparse.KindBitMask,
			Default: ares.StreamPolicy{BPC: 3}})
	good := show("BitM+IdxSync, mask at SLC, values at MLC3:",
		ares.Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync,
			Default: ares.StreamPolicy{BPC: 3},
			Overrides: map[string]ares.StreamPolicy{
				"bitmask": {BPC: 1},
				"idxsync": {BPC: 1},
			}})

	bound := m.Meta.ErrorBound
	fmt.Printf("\niso-training-noise bound: %.4f\n", bound)
	if good.MeanDeltaErr <= bound && bad.MeanDeltaErr > bound {
		fmt.Println("-> co-designed configuration is safe; naive MLC3 storage is not.")
	} else {
		fmt.Println("-> unexpected outcome; inspect fault rates and bounds.")
	}

	// Storage bill for the safe configuration.
	var cells, bits int64
	for _, cl := range ev.Clustered() {
		enc := sparse.Must(sparse.Encode(sparse.KindBitMaskIdxSync, cl.Indices, cl.Rows, cl.Cols, cl.IndexBits, cl.Centroids))
		costs := ares.Cost(enc, ares.Config{Tech: envm.CTT, Encoding: sparse.KindBitMaskIdxSync,
			Default: ares.StreamPolicy{BPC: 3},
			Overrides: map[string]ares.StreamPolicy{
				"bitmask": {BPC: 1}, "idxsync": {BPC: 1},
			}})
		cells += ares.TotalCells(costs)
		bits += ares.TotalBits(costs)
	}
	raw := int64(m.WeightCount()) * 16
	fmt.Printf("\nStorage: %d cells (%.2f KB stored) vs %.2f KB raw 16-bit -> %.1fx denser.\n",
		cells, float64(bits)/8e3, float64(raw)/8e3, float64(raw)/float64(bits))
	fmt.Printf("Write time (full model): %.3fs on CTT — acceptable for a rarely-updated device.\n",
		envm.CTT.WriteTimeSeconds(cells, 3))
}
