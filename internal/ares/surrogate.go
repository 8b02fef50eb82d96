package ares

import (
	"math"

	"repro/internal/bitstream"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// The surrogate accuracy model. Real fault-injected inference is only
// tractable for the small models (see MeasuredEvaluator); for the
// ImageNet-scale networks the framework maps *measured corruption
// statistics* — obtained by actually decoding faulted streams — to a
// classification-error delta:
//
//	DeltaErr = headroom * (1 - exp(-s * (valueNSR + B*structFrac)))
//
// where headroom is the distance from baseline error to chance level,
// s is a per-model noise sensitivity, and B weights structural
// corruption (sparsity-pattern destruction from misalignment) more
// heavily than value drift. The constants are calibrated against (a) the
// measured TinyCNN/LeNet behaviour and (b) the paper's reported safe
// bits-per-cell decisions (see DESIGN.md section 6; the calibration
// test is TestSurrogateOrderingMatchesMeasured in internal/core, which
// scores the explorer's production path against measured inference).

// StructWeight is the relative impact of structurally corrupted weights
// versus unit value-NSR.
const StructWeight = 4.0

// ECCDataBits is the SEC-DED codeword granularity used for protected
// streams: 512 data bits + 11 parity (~2.1% overhead on the protected
// structure). The paper quotes 24 parity bits per 4KB sector; at our
// calibrated worst-case CTT MLC3 fault rate (1e-3) such long codewords
// see multi-fault blocks too often to correct, so the implementation
// uses shorter sectors — the model-level ECC overhead in the optimal
// configurations remains ~1-2% of the protected structures and well
// under 1% of total DNN storage when (as in the paper's primary use)
// only the CSR metadata is protected.
const ECCDataBits = 512

// Sensitivity returns the per-model noise sensitivity s. Small-dataset
// models (MNIST, CIFAR) tolerate far more weight noise than ImageNet
// models, matching both the fault-injection literature and the paper's
// per-model bits-per-cell outcomes.
func Sensitivity(modelName string) float64 {
	switch modelName {
	case "LeNet5":
		return 0.3
	case "TinyCNN":
		return 0.5
	case "VGG12":
		return 1.7
	case "VGG16":
		return 4.0
	case "ResNet50":
		return 5.0
	}
	return 1.0
}

// Headroom returns the maximum possible error increase: chance-level
// error minus the baseline error.
func Headroom(classes int, baselineErr float64) float64 {
	maxErr := 1 - 1/float64(classes)
	h := maxErr - baselineErr
	if h < 0 {
		return 0
	}
	return h
}

// DeltaError maps corruption statistics to an expected classification
// error increase.
func DeltaError(sens, headroom, valueNSR, structFrac float64) float64 {
	x := sens * (valueNSR + StructWeight*structFrac)
	return headroom * (1 - math.Exp(-x))
}

// Damage is the corruption one fault event causes in a stream, measured
// by forcing faults and decoding (ProbeStreamDamage).
type Damage struct {
	// DStruct is the structural corruption per event, as a fraction of
	// the layer's weights.
	DStruct float64
	// DNSR is the value noise-to-signal per event (the layer's signal).
	DNSR float64
	// DMismatch is the fraction of the layer's weights whose decoded
	// index differs per event — the cascade detector: a misalignment
	// event scrambles a large fraction in place.
	DMismatch float64
}

// Catastrophic reports whether a single event is a cascade: it scrambles
// enough of the layer's weight indices that its damage saturates, so the
// surrogate handles it as a rare event rather than linearly.
func (d Damage) Catastrophic() bool { return d.DMismatch >= 0.02 }

// DefaultProbeTrials is the number of forced-fault probes per stream and
// policy when the caller does not choose one.
const DefaultProbeTrials = 6

// StreamDamage characterizes one stored structure's fault exposure: how
// many uncorrectable fault events to expect, and how much corruption a
// single event causes.
type StreamDamage struct {
	Name string
	// LambdaEff is the expected number of uncorrectable fault events over
	// the full structure (after ECC, if configured).
	LambdaEff float64
	// Damage is the corruption of one event at the layer's full scale.
	Damage
}

// LayerDamage is the full surrogate input for one layer.
type LayerDamage struct {
	Costs   []StreamCost
	Streams []StreamDamage
	// Weights is the layer's weight count; SignalSS its sum of squared
	// weights (for cross-layer NSR combination).
	Weights  int
	SignalSS float64
}

// LambdaEff returns the expected number of uncorrectable fault events
// for a structure of the given size. Without ECC every cell fault is an
// event. With ECC, single faults per SEC-DED block of blockBits data
// bits (0 = ECCDataBits) are corrected; the residual events are blocks
// with >= 2 faults (Poisson tail), each counted as one event (of roughly
// double damage, folded into the probe, which forces two faults for ECC
// streams). Shorter blocks trade parity overhead for a smaller residual.
func LambdaEff(bits int64, sc envm.StoreConfig, eccOn bool, blockBits int) float64 {
	p := sc.FaultMap().TotalRate()
	cells := float64(envm.CellsFor(bits, sc.BPC))
	if !eccOn {
		return cells * p
	}
	if blockBits <= 0 {
		blockBits = ECCDataBits
	}
	code := ecc.NewBlockCode(blockBits)
	blocks := float64(code.Blocks(int(bits)))
	if blocks == 0 {
		return 0
	}
	return blocks * DoubleFaultProb(cells/blocks*p)
}

// DoubleFaultProb returns P(>= 2 events) for a Poisson count with mean
// lambda, 1 - e^-λ - λe^-λ: the chance that a SEC-DED block expecting
// lambda faults holds an uncorrectable pair.
func DoubleFaultProb(lambda float64) float64 {
	return 1 - math.Exp(-lambda) - lambda*math.Exp(-lambda)
}

// ProbeStreamDamage measures the per-event corruption of one stream of an
// encoded layer under the given policy by forcing fault events into
// clones of the encoding and decoding, averaged over trials. For
// ECC-protected streams the event is two faults in one ECCDataBits block
// (the uncorrectable case); otherwise a single cell fault. Damage is
// tech-independent: it depends only on the encoding, the bits-per-cell
// grouping, and the level mapping.
func ProbeStreamDamage(enc sparse.Encoding, streamIdx int, cl *quant.Clustered, p StreamPolicy, trials int, seed uint64) Damage {
	src := stats.NewSource(seed)
	// Reference = the pristine decode: identical to cl.Indices for the
	// lossless kinds, the projected indices for 2:4 — so the probe
	// measures fault damage only, never static projection loss.
	ref := enc.Decode()
	var d Damage
	for t := 0; t < trials; t++ {
		clone := sparse.Must(sparse.CloneEncoding(enc))
		s := clone.Streams()[streamIdx]
		cells := int(envm.CellsFor(s.SizeBits(), p.BPC))
		if cells == 0 {
			return Damage{}
		}
		if p.ECC {
			code := ecc.NewBlockCode(ECCDataBits)
			prot := code.Protect(s.Bits)
			// Two faults in one block: pick a block, then two distinct
			// cells inside it.
			blocks := code.Blocks(s.Bits.Len())
			b := src.Intn(blocks)
			cellsPerBlock := ECCDataBits / p.BPC
			lo := b * cellsPerBlock
			hi := lo + cellsPerBlock
			if hi > cells {
				hi = cells
			}
			if hi-lo < 2 {
				continue
			}
			c1 := lo + src.Intn(hi-lo)
			c2 := lo + src.Intn(hi-lo)
			for c2 == c1 {
				c2 = lo + src.Intn(hi-lo)
			}
			forceFault(s, c1, p, src)
			forceFault(s, c2, p, src)
			prot.Correct()
		} else {
			forceFault(s, src.Intn(cells), p, src)
		}
		decoded := clone.Decode()
		var st TrialStats
		fillCorruption(&st, ref, decoded, cl.Centroids)
		d.DStruct += st.StructFrac
		d.DNSR += st.ValueNSR
		d.DMismatch += st.Mismatch
	}
	n := float64(trials)
	return Damage{DStruct: d.DStruct / n, DNSR: d.DNSR / n, DMismatch: d.DMismatch / n}
}

// forceFault moves one cell's stored level to an adjacent level,
// respecting the configured level mapping (binary or Gray).
func forceFault(s *bitstream.Stream, cell int, p StreamPolicy, src *stats.Source) {
	bpc := p.BPC
	sym := s.Bits.GetBits(cell*bpc, bpc)
	level := sym
	if p.ECC {
		level = ecc.GrayInv(sym)
	}
	maxLevel := uint64(1)<<uint(bpc) - 1
	var newLevel uint64
	switch {
	case level == 0:
		newLevel = 1
	case level == maxLevel:
		newLevel = level - 1
	case src.Bernoulli(0.5):
		newLevel = level + 1
	default:
		newLevel = level - 1
	}
	out := newLevel
	if p.ECC {
		out = ecc.Gray(newLevel)
	}
	s.Bits.SetBits(cell*bpc, bpc, out)
}
