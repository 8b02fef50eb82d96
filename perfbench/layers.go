package main

// Per-layer probes of a traced run: the dense kernel replay (dnn,
// tensor), the stored-bit corrupt pipeline replay (sparse, envm, ecc)
// next to ares.CorruptTrial and ares.EvalTrial, and the crossbar
// programming replay. Each replay calls the layers' public functions in
// the order the program does and checks that it reproduces the
// program's outputs before its timings are reported.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ares"
	"repro/internal/crossbar"
	"repro/internal/dnn"
	"repro/internal/ecc"
	"repro/internal/envm"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// layerUnits lists every per-layer metric with its unit; BENCHMARK.json
// lists the same names.
var layerUnits = map[string]string{
	"train.fit_s": "s", "ares.evaluator_s": "s", "fleet.plan_s": "s",
	"campaign.trial_p50_ms": "ms", "campaign.trial_p99_ms": "ms", "campaign.busy_frac": "ratio",
	"fleet.merge_s": "s", "fleet.drain_s": "s", "fleet.claims": "count", "fleet.steals": "count",
	"fleet.wal_bytes":   "bytes",
	"ares.fasthit_frac": "ratio", "ares.corrupt_ms": "ms", "ares.measure_ms": "ms",
	"ares.trial_ms.csr": "ms", "ares.trial_ms.24": "ms", "ares.trial_ms.crossbar": "ms",
	"sparse.encode_ms": "ms", "sparse.clone_ms": "ms", "sparse.decode_ms": "ms",
	"envm.inject_ms": "ms", "ecc.correct_ms": "ms",
	"dnn.forward_ms": "ms", "tensor.conv1_ms": "ms", "tensor.conv2_ms": "ms", "tensor.fc1_ms": "ms",
	"tensor.fc2_ms": "ms", "tensor.pool_ms": "ms", "tensor.relu_ms": "ms",
	"crossbar.program_ms": "ms", "crossbar.online_ms": "ms", "crossbar.remaps_per_trial": "count",
	"serve.backend_ms.inject": "ms", "serve.backend_ms.encode": "ms", "serve.backend_ms.evaluate": "ms",
	"serve.backend_ms.lifetime": "ms", "serve.self_p50_ms": "ms", "serve.self_p99_ms": "ms",
	"serve.coalesced_frac": "ratio", "serve.shed": "count", "loadgen.late_ms": "ms",
	"trace.overhead_frac": "ratio", "trace.peak_rss_mb": "MB",
}

// Metric groups a workload may not exercise.
var (
	fleetMetrics    = []string{"fleet.plan_s", "fleet.merge_s", "fleet.drain_s", "fleet.claims", "fleet.steals", "fleet.wal_bytes"}
	campaignMetrics = []string{"campaign.trial_p50_ms", "campaign.trial_p99_ms", "campaign.busy_frac"}
	routeMetrics    = []string{"ares.trial_ms.csr", "ares.trial_ms.24", "ares.trial_ms.crossbar"}
	crossbarMetrics = []string{"crossbar.program_ms", "crossbar.online_ms", "crossbar.remaps_per_trial"}
)

// kernelReplayReps is how many timed passes the kernel replay makes.
const kernelReplayReps = 15

// kernelReplay times the pristine dense forward pass over the test set
// (dnn.forward_ms) and replays it kernel by kernel (tensor.*), with
// dense weights from quant.Clustered.Decode. The breakdown is dropped
// when the replayed logits differ from Forwarder.Forward's in any bit.
func kernelReplay(b *bench, ev *ares.MeasuredEvaluator) {
	m, in := ev.Model, ev.Test.Images
	fw := dnn.NewForwarder(m)
	fw.Workers = 1
	ref := append([]float32(nil), fw.Forward(in).Data...)

	// Dense weights per model layer, in weight-layer order.
	weights := map[int]*tensor.Matrix{}
	cls := ev.Clustered()
	k := 0
	for i, l := range m.Layers {
		if l.HasWeights() {
			if k >= len(cls) {
				b.skip("kernel replay: model has more weight layers than the evaluator", kernelNames()...)
				return
			}
			weights[i] = cls[k].Decode()
			k++
		}
	}
	acts := make([]*tensor.Tensor4, len(m.Layers))
	ws := &tensor.ConvWorkspace{Workers: 1}
	times := map[string][]float64{}
	var fwd []float64
	var logits []float32
	for r := 0; r <= kernelReplayReps; r++ { // pass 0 warms the buffers
		// Forward and replay alternate, so both see the same machine.
		sp := b.tr.begin("dnn.forward", fmt.Sprintf("fwd%d", r), -1)
		t0 := time.Now()
		fw.Forward(in)
		if r > 0 {
			fwd = append(fwd, ms(time.Since(t0)))
		}
		b.tr.end(sp)

		per := map[string]float64{}
		parent := b.tr.begin("kernel.replay", fmt.Sprintf("replay%d", r), -1)
		x := in
		for i, l := range m.Layers {
			kind := ""
			t0 := time.Now()
			switch l.Kind {
			case dnn.Conv:
				if acts[i] == nil {
					acts[i] = tensor.NewTensor4(x.N, l.Conv.OutC, l.Conv.OutH(), l.Conv.OutW())
				}
				tensor.Conv2DInto(acts[i], x, weights[i], l.Bias, l.Conv, ws)
				kind = "tensor." + l.Name
			case dnn.FC:
				if acts[i] == nil {
					acts[i] = tensor.NewTensor4(x.N, l.OutFeatures, 1, 1)
				}
				flat := tensor.Matrix{Rows: x.N, Cols: x.C * x.H * x.W, Data: x.Data}
				view := tensor.Matrix{Rows: x.N, Cols: l.OutFeatures, Data: acts[i].Data}
				tensor.MulABtBand(&view, &flat, weights[i], 0, x.N)
				if l.Bias != nil {
					view.AddBiasRows(l.Bias)
				}
				kind = "tensor." + l.Name
			case dnn.MaxPool:
				if acts[i] == nil {
					acts[i] = tensor.NewTensor4(x.N, x.C, x.H/l.PoolK, x.W/l.PoolK)
				}
				tensor.MaxPool2DInto(acts[i], x, l.PoolK)
				kind = "tensor.pool"
			default:
				b.skip(fmt.Sprintf("kernel replay: layer %s has a kind the TinyCNN replay does not cover", l.Name), kernelNames()...)
				b.tr.end(parent)
				return
			}
			t1 := time.Now()
			b.tr.add(kind, fmt.Sprintf("replay%d", r), parent, t0, t1)
			per[kind+"_ms"] += ms(t1.Sub(t0))
			if l.ReLUAfter {
				acts[i].ReLU()
				t2 := time.Now()
				b.tr.add("tensor.relu", fmt.Sprintf("replay%d", r), parent, t1, t2)
				per["tensor.relu_ms"] += ms(t2.Sub(t1))
			}
			x = acts[i]
		}
		b.tr.end(parent)
		logits = x.Data
		if r > 0 {
			for name, v := range per {
				times[name] = append(times[name], v)
			}
		}
	}
	b.layer("dnn.forward_ms", "ms", median(fwd), len(fwd))
	if !bitsEqual32(logits, ref) {
		b.skip("kernel replay logits differ from Forwarder.Forward; breakdown dropped", kernelNames()...)
		return
	}
	var sum float64
	for _, n := range kernelNames() {
		v := median(times[n])
		sum += v
		b.layer(n, "ms", v, len(times[n]))
	}
	b.printf("  accounting: dnn.forward_ms %.4f = sum(tensor.*) %.4f + residual %.4f ms",
		median(fwd), sum, median(fwd)-sum)
}

func kernelNames() []string {
	return []string{"tensor.conv1_ms", "tensor.conv2_ms", "tensor.fc1_ms", "tensor.fc2_ms", "tensor.pool_ms", "tensor.relu_ms"}
}

func bitsEqual32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// probeTrial is one (config, seed) the corrupt probe replays.
type probeTrial struct {
	cfg  int
	seed uint64
}

// corruptProbe times the stored-bit corrupt pipeline of sampled trials
// layer by layer (sparse encode/clone/decode, envm inject, ecc
// protect+correct), then the same (cfg, seed) through ares.CorruptTrial
// and ares.EvalTrial. ares.measure_ms is EvalTrial minus CorruptTrial.
// The replay must reproduce CorruptTrial's fault and ECC counts.
func corruptProbe(b *bench, ev *ares.MeasuredEvaluator, cfgs []ares.Config, trials []probeTrial) {
	encs := make([][]sparse.Encoding, len(cfgs))
	var encode []float64
	for c, cfg := range cfgs {
		t0 := time.Now()
		for _, cl := range ev.Clustered() {
			enc, err := ares.EncodeLayer(cl, cfg)
			if err != nil {
				b.check(false, "corrupt probe: encode %s: %v", cfg, err)
				return
			}
			encs[c] = append(encs[c], enc)
		}
		b.tr.add("sparse.encode", cfg.String(), -1, t0, time.Now())
		encode = append(encode, ms(time.Since(t0)))
	}
	var clone, inject, correct, decode, corrupt, measure []float64
	for _, pt := range trials {
		cfg := cfgs[pt.cfg]
		id := fmt.Sprintf("%s#%d", cfg, pt.seed)
		parent := b.tr.begin("probe.replay", id, -1)
		var tc, ti, te, td time.Duration
		var faults, corrected, detected int
		tsrc := stats.NewSource(pt.seed)
		for i := range ev.Clustered() {
			lseed := tsrc.Uint64()
			t0 := time.Now()
			cl, err := sparse.CloneEncoding(encs[pt.cfg][i])
			if err != nil {
				b.check(false, "corrupt probe: clone: %v", err)
				return
			}
			tc += time.Since(t0)
			src := stats.NewSource(lseed)
			for si, s := range cl.Streams() {
				p := cfg.PolicyFor(s.Name)
				if p.BPC == 0 {
					continue
				}
				sc := cfg.StoreConfig(p)
				ssrc := src.Fork(uint64(si) + 1)
				if !p.ECC {
					t1 := time.Now()
					faults += envm.InjectArray(s.Bits, sc, ssrc)
					ti += time.Since(t1)
					continue
				}
				t1 := time.Now()
				prot := ecc.NewBlockCode(cfg.BlockBits()).Protect(s.Bits)
				t2 := time.Now()
				faults += envm.InjectArray(prot.Data, sc, ssrc)
				faults += envm.InjectArray(prot.Parity.Bits, sc, ssrc.Fork(2))
				t3 := time.Now()
				rep := prot.CorrectReport()
				corrected += rep.Corrected
				detected += rep.Detected
				if cfg.Degrade {
					for _, blk := range rep.Bad {
						prot.ZeroBlock(blk)
					}
				}
				t4 := time.Now()
				te += t2.Sub(t1) + t4.Sub(t3)
				ti += t3.Sub(t2)
			}
			t5 := time.Now()
			cl.Decode()
			td += time.Since(t5)
		}
		b.tr.end(parent)

		sp := b.tr.begin("ares.CorruptTrial", id, -1)
		t0 := time.Now()
		st, err := ev.CorruptTrial(background, cfg, pt.seed)
		dc := time.Since(t0)
		b.tr.end(sp)
		if err != nil {
			b.check(false, "corrupt probe: CorruptTrial %s: %v", id, err)
			return
		}
		sp = b.tr.begin("ares.EvalTrial", id, -1)
		t0 = time.Now()
		_, _, err = ev.EvalTrial(background, cfg, pt.seed)
		de := time.Since(t0)
		b.tr.end(sp)
		if err != nil {
			b.check(false, "corrupt probe: EvalTrial %s: %v", id, err)
			return
		}
		if st.Faults != faults || st.Corrected != corrected || st.Detected != detected {
			b.skip(fmt.Sprintf("corrupt replay of %s counted %d/%d/%d faults/corrected/detected, CorruptTrial %d/%d/%d; breakdown dropped",
				id, faults, corrected, detected, st.Faults, st.Corrected, st.Detected),
				"sparse.encode_ms", "sparse.clone_ms", "sparse.decode_ms", "envm.inject_ms", "ecc.correct_ms")
			return
		}
		clone = append(clone, ms(tc))
		inject = append(inject, ms(ti))
		correct = append(correct, ms(te))
		decode = append(decode, ms(td))
		corrupt = append(corrupt, ms(dc))
		measure = append(measure, ms(de-dc))
	}
	n := len(trials)
	b.layer("sparse.encode_ms", "ms", mean(encode), len(encode))
	b.layer("sparse.clone_ms", "ms", mean(clone), n)
	b.layer("envm.inject_ms", "ms", mean(inject), n)
	b.layer("ecc.correct_ms", "ms", mean(correct), n)
	b.layer("sparse.decode_ms", "ms", mean(decode), n)
	b.layer("ares.corrupt_ms", "ms", mean(corrupt), n)
	b.layer("ares.measure_ms", "ms", mean(measure), n)
	parts := mean(clone) + mean(inject) + mean(correct) + mean(decode)
	b.printf("  accounting: ares.corrupt_ms %.4f = sparse.clone+envm.inject+ecc.correct+sparse.decode %.4f + residual %.4f ms",
		mean(corrupt), parts, mean(corrupt)-parts)
}

// crossbarProbe replays the crossbar route's programming of sampled
// trials (crossbar.Map once, then per trial and layer NewTrial, Program
// and, with the online loop planned, Online) and checks its fault,
// flag and remap counts against the program's trial outcomes.
func crossbarProbe(b *bench, ev *ares.MeasuredEvaluator, cfg ares.Config, seeds []uint64, want map[uint64]outcome) {
	xc := *cfg.Crossbar
	var layers []*crossbar.Layer
	for _, cl := range ev.Clustered() {
		ly, err := crossbar.Map(cl.Decode(), xc, cfg.Tech)
		if err != nil {
			b.check(false, "crossbar probe: map: %v", err)
			return
		}
		layers = append(layers, ly)
	}
	var program, online, remaps []float64
	for _, seed := range seeds {
		id := fmt.Sprintf("%s#%d", cfg, seed)
		parent := b.tr.begin("crossbar.replay", id, -1)
		var tp, to time.Duration
		var faults, flagged, remapped int
		tsrc := stats.NewSource(seed)
		for _, ly := range layers {
			lseed := tsrc.Uint64()
			t, err := ly.NewTrial(xc)
			if err != nil {
				b.check(false, "crossbar probe: trial: %v", err)
				return
			}
			lsrc := stats.NewSource(lseed)
			t0 := time.Now()
			t.Program(lsrc)
			t1 := time.Now()
			b.tr.add("crossbar.program", id, parent, t0, t1)
			tp += t1.Sub(t0)
			if xc.Online() {
				t.Online(lsrc.Fork(4))
				t2 := time.Now()
				b.tr.add("crossbar.online", id, parent, t1, t2)
				to += t2.Sub(t1)
			}
			faults += t.Stats.StuckCells + t.Stats.StuckCols
			flagged += t.Stats.Flagged
			remapped += t.Stats.Remapped
		}
		b.tr.end(parent)
		if w, ok := want[seed]; ok && (w.faults != faults || w.detected != flagged || w.corrected != remapped) {
			b.skip(fmt.Sprintf("crossbar replay of %s counted %d/%d/%d faults/flagged/remapped, EvalTrial %d/%d/%d; breakdown dropped",
				id, faults, flagged, remapped, w.faults, w.detected, w.corrected), crossbarMetrics...)
			return
		}
		program = append(program, ms(tp))
		online = append(online, ms(to))
		remaps = append(remaps, float64(remapped))
	}
	b.layer("crossbar.program_ms", "ms", mean(program), len(program))
	b.layer("crossbar.online_ms", "ms", mean(online), len(online))
	b.layer("crossbar.remaps_per_trial", "count", mean(remaps), len(remaps))
}
