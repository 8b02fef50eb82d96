package ares

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/quant"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// MeasuredEvaluator runs *real inference* on a trained model with
// fault-injected weights — the ground-truth accuracy path used for the
// small models (Figure 5 reproduction) and for calibrating the surrogate.
//
// Every trial runs one pipeline: a route step (stored-bit, compute-direct
// 2:4, or crossbar) turns (cfg, seed) into a trial — corruption
// statistics, a pristine flag, and a per-layer weight-operand overlay —
// and one measure step runs that overlay on a pooled replica. Model is
// only read after construction, so any number of trials share it.
type MeasuredEvaluator struct {
	// Model runs on the clustered weights; it is read-only after
	// NewMeasuredEvaluator.
	Model *dnn.Model
	Test  *train.Dataset
	// BaselineErr is the fault-free classification error of the clustered
	// model (measured at construction; base.err).
	BaselineErr float64

	// layerIdx maps weight-layer ordinal to model layer index.
	layerIdx []int
	// clustered holds the pruned+clustered form of each weight layer.
	clustered []*quant.Clustered
	// origIdx aliases each clustered layer's pristine indices (the
	// reference matrix for lossless encodings; see refFor).
	origIdx [][]uint8
	// base is the clustered dense model's reference pass: the baseline
	// and activation prefix of the stored-bit routes (see replica.go).
	base base
	// prefixStarts counts measured trials per start layer, indexed like
	// Model.Layers (nil for layers a pass never starts at: all but the
	// first layer and the weight layers).
	prefixStarts []*telemetry.Counter
	// tf is the lazily-built compute-direct 2:4 state (see direct24.go).
	tf twofourState

	// replicas holds idle inference replicas; replicaSem bounds lazy
	// replica creation to the pool capacity (see initReplicaPool).
	replicas   chan *replica
	replicaSem chan struct{}
	// encMu guards encCache (pristine per-config encodings; trials clone).
	encMu    sync.Mutex
	encCache map[string][]sparse.Encoding
	// xbarMu guards xbarCache (pristine crossbar mappings and their
	// mapped baselines, one per tech + mapping design point; see xbar.go).
	xbarMu    sync.Mutex
	xbarCache map[string]*xbarState
}

// NewMeasuredEvaluator prunes and clusters the trained model's weights
// (per its Meta), applies the clustered weights to the model (the
// iso-accuracy baseline includes quantization), and measures the
// fault-free baseline error. The evaluator keeps m and only reads it
// from then on; the caller must not modify it either.
func NewMeasuredEvaluator(m *dnn.Model, test *train.Dataset, seed uint64) (*MeasuredEvaluator, error) {
	if !m.Materialized() {
		return nil, fmt.Errorf("ares: model %q not materialized", m.Name)
	}
	ev := &MeasuredEvaluator{Model: m, Test: test}
	for i, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		quant.Prune(l.Weights, m.Meta.TargetSparsity, seed+uint64(i))
		cl := quant.Cluster(l.Weights, m.Meta.ClusterIndexBits, quant.ClusterOptions{Seed: seed + uint64(i)})
		cl.Apply(l.Weights) // model now runs on clustered weights
		ev.layerIdx = append(ev.layerIdx, i)
		ev.clustered = append(ev.clustered, cl)
		ev.origIdx = append(ev.origIdx, cl.Indices)
	}
	ev.base = ev.newBase(nil, true)
	ev.BaselineErr = ev.base.err
	ev.prefixStarts = make([]*telemetry.Counter, len(m.Layers))
	for i, l := range m.Layers {
		if i == 0 || l.HasWeights() {
			ev.prefixStarts[i] = telemetry.Default().Counter("ares.prefix.start." + l.Name)
		}
	}
	ev.encCache = make(map[string][]sparse.Encoding)
	ev.xbarCache = make(map[string]*xbarState)
	ev.initReplicaPool()
	return ev, nil
}

// Clustered returns the pruned+clustered layers (weight-layer order).
func (ev *MeasuredEvaluator) Clustered() []*quant.Clustered { return ev.clustered }

// refFor returns the per-layer reference indices and the fault-free
// base that trials under cfg measure against. Lossless encodings decode
// pristinely back to the clustered indices, so the references are the
// clustered layers and the clustered base. Kind24's 2-of-4 projection
// is lossy: its references are the projected indices and the
// projected-model base, so a trial's delta reports only fault damage,
// never the static projection loss.
func (ev *MeasuredEvaluator) refFor(cfg Config) ([][]uint8, *base, error) {
	if cfg.Encoding == sparse.Kind24 {
		tf, err := ev.twofour()
		if err != nil {
			return nil, nil, err
		}
		return tf.orig24, &tf.base, nil
	}
	return ev.origIdx, &ev.base, nil
}

// MeasuredResult is the outcome of a measured fault-injection campaign.
type MeasuredResult struct {
	// MeanDeltaErr is the mean classification-error increase over trials
	// (negative deltas clamp to 0: sampling noise).
	MeanDeltaErr float64
	// MaxDeltaErr is the worst trial.
	MaxDeltaErr float64
	// Stats aggregates the per-trial corruption statistics.
	Stats []TrialStats
}

// EvalConfig runs `trials` independent fault maps under cfg, one
// EvalTrial each, and measures the true classification error of each
// corrupted model. Trial t runs at seed stats.NewSource(seed).ForkSeed(t+1)
// (forks drawn in trial order). It panics on an invalid configuration.
func (ev *MeasuredEvaluator) EvalConfig(cfg Config, trials int, seed uint64) MeasuredResult {
	if trials < 1 {
		panic("ares: trials < 1")
	}
	src := stats.NewSource(seed)
	var res MeasuredResult
	for t := 0; t < trials; t++ {
		delta, st, err := ev.EvalTrial(context.Background(), cfg, src.ForkSeed(uint64(t)+1))
		if err != nil {
			panic(err)
		}
		res.Stats = append(res.Stats, st)
		res.MeanDeltaErr += delta
		if delta > res.MaxDeltaErr {
			res.MaxDeltaErr = delta
		}
	}
	res.MeanDeltaErr /= float64(trials)
	return res
}

// encodings returns the pristine per-layer encodings for cfg, encoding
// each distinct configuration once and caching the result (trials clone
// before mutating, so sharing the pristine encodings is safe).
func (ev *MeasuredEvaluator) encodings(cfg Config) ([]sparse.Encoding, error) {
	key := cfg.String()
	ev.encMu.Lock()
	defer ev.encMu.Unlock()
	if encs, ok := ev.encCache[key]; ok {
		met.cacheHits.Inc()
		return encs, nil
	}
	met.cacheMisses.Inc()
	start := time.Now()
	encs := make([]sparse.Encoding, len(ev.clustered))
	for i, cl := range ev.clustered {
		enc, err := EncodeLayer(cl, cfg)
		if err != nil {
			return nil, err
		}
		encs[i] = enc
	}
	met.encode.Since(start)
	ev.encCache[key] = encs
	return encs, nil
}

// trial is one corrupted trial ready to measure: the output of a route
// step (corruptStorage, corrupt24, corruptXbar) and the input of both
// measure and the reference oracle.
type trial struct {
	stats TrialStats
	// pristine marks a trial whose weights equal the route's reference
	// exactly: measuring it would reproduce baseline, so its delta is 0
	// by construction and measure skips inference (the fast path).
	pristine bool
	// layers holds one overlay payload per weight layer.
	layers []layerOp
	// base is the fault-free reference the delta is measured against;
	// its operands and prefix let measure skip the layers the trial
	// left as they are.
	base *base
}

// layerOp is one weight layer's overlay payload; at most one form is
// set (none for a layer that runs on the model's own weights):
//
//   - idx: decoded cluster indices (stored-bit route). A replica maps
//     them through the centroids into its private dense buffer unless
//     they equal the clustered indices the model already holds.
//   - vals, pos: a corrupted canonical 2:4 compact form, filled into
//     the replica's private Sparse24 buffer.
//   - op: a ready operand used as is (the shared pristine 2:4 compact,
//     crossbar effective weights).
type layerOp struct {
	idx, vals, pos []uint8
	op             tensor.Operand
}

func (ev *MeasuredEvaluator) newTrial(b *base) trial {
	return trial{pristine: true, layers: make([]layerOp, len(ev.clustered)), base: b}
}

// addDecoded records weight layer i's decoded indices and corruption
// statistics against its reference indices.
func (t *trial) addDecoded(i int, st TrialStats, decoded, ref []uint8) {
	t.stats.addLayer(st, len(ref))
	t.layers[i].idx = decoded
	t.pristine = t.pristine && bytes.Equal(decoded, ref)
}

// corrupt runs cfg's route step: crossbar compute-in-memory, the
// compute-direct 2:4 route for Kind24, or the stored-bit route.
func (ev *MeasuredEvaluator) corrupt(ctx context.Context, cfg Config, seed uint64) (trial, error) {
	switch {
	case cfg.Crossbar != nil:
		return ev.corruptXbar(ctx, cfg, seed)
	case cfg.Encoding == sparse.Kind24:
		return ev.corrupt24(ctx, cfg, seed)
	}
	return ev.corruptStorage(ctx, cfg, seed)
}

// corruptStorage is the stored-bit route step: encode -> inject ->
// decode per layer. The per-layer injection seeds are drawn from
// stats.NewSource(seed), so the decoded indices are a pure function of
// (cfg, seed) regardless of worker interleaving. Kind24 decodes to dense
// here too, which makes this the 2:4 route's decode-to-dense oracle.
func (ev *MeasuredEvaluator) corruptStorage(ctx context.Context, cfg Config, seed uint64) (trial, error) {
	encs, err := ev.encodings(cfg)
	if err != nil {
		return trial{}, err
	}
	refs, b, err := ev.refFor(cfg)
	if err != nil {
		return trial{}, err
	}
	t := ev.newTrial(b)
	tsrc := stats.NewSource(seed)
	for i, cl := range ev.clustered {
		st, decoded, err := RunTrialChecked(ctx, encs[i], refs[i], cl.Centroids, cfg, tsrc.Uint64())
		if err != nil {
			return t, err
		}
		t.addDecoded(i, st, decoded, refs[i])
	}
	t.stats.finish(ev.totalWeights())
	return t, ctx.Err()
}

// CorruptTrial runs only the corruption stages of one trial — no
// inference — and returns the aggregated corruption statistics. It
// serves callers that want the storage-level damage picture (fault
// counts, mismatch, value NSR) without paying for a measurement: the
// inject endpoint of the evaluation server, and any probe that triages
// configurations before spending inference on them. Same route and
// purity contract as EvalTrial: the outcome is a pure function of
// (cfg, seed).
func (ev *MeasuredEvaluator) CorruptTrial(ctx context.Context, cfg Config, seed uint64) (TrialStats, error) {
	t, err := ev.corrupt(ctx, cfg, seed)
	return t.stats, err
}

// EvalTrial runs ONE fault-injection trial under cfg with the given
// trial seed and returns the measured classification-error delta
// (clamped at 0) plus the aggregated corruption statistics.
//
// It is the campaign-engine entry point: errors are returned rather than
// panicking, a cancelled context aborts between layers, and concurrent
// calls are safe AND parallel end to end — the route steps share
// nothing mutable, and measurement runs on a checked-out replica over
// the read-only model, so up to GOMAXPROCS trials run inference
// simultaneously. Seeding contract: the per-layer seeds are drawn from
// stats.NewSource(seed), so the trial outcome is a pure function of
// (cfg, seed) regardless of worker interleaving or which replica serves
// the measurement (see replica.go for the argument).
//
// The route follows cfg: crossbar configs run the compute-in-memory
// fault model (xbar.go), Kind24 configs the compute-direct 2:4 route
// (direct24.go) with no dense materialization on the hot path, and
// every other config the stored-bit decode-to-dense route.
func (ev *MeasuredEvaluator) EvalTrial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	t, err := ev.corrupt(ctx, cfg, seed)
	if err != nil {
		return 0, t.stats, err
	}
	return ev.measure(t), t.stats, nil
}

// EvalTrialSerial is EvalTrial measured by the reference oracle, an
// implementation kept independent of the path it checks: no fast path,
// no replica pool or private buffers, no 2:4 kernels, no activation
// prefix. Each call maps the decoded indices into fresh dense matrices
// (Kind24 included: the decode-to-dense oracle) or takes the trial's
// crossbar operands, and runs the full pass on a fresh default-Workers
// Forwarder. The replica route is pinned bit-identical to it by test,
// and the benchmark suite compares the two.
func (ev *MeasuredEvaluator) EvalTrialSerial(ctx context.Context, cfg Config, seed uint64) (float64, TrialStats, error) {
	corrupt := ev.corruptStorage
	if cfg.Crossbar != nil {
		corrupt = ev.corruptXbar
	}
	t, err := corrupt(ctx, cfg, seed)
	if err != nil {
		return 0, t.stats, err
	}
	return ev.measureSerial(t), t.stats, nil
}

// measureSerial is the oracle's measurement of a trial (see
// EvalTrialSerial).
func (ev *MeasuredEvaluator) measureSerial(t trial) float64 {
	start := time.Now()
	fw := dnn.NewForwarder(ev.Model)
	for i, p := range t.layers {
		op := p.op
		if op == nil {
			cl := ev.clustered[i]
			w := tensor.NewMatrix(cl.Rows, cl.Cols)
			centroidsInto(w.Data, p.idx, cl.Centroids)
			op = w
		}
		fw.Ops[ev.layerIdx[i]] = op
	}
	delta := 1 - train.AccuracyOf(fw.Forward(ev.Test.Images), ev.Test) - t.base.err
	met.eval.Since(start)
	return clampDelta(delta)
}

// centroidsInto maps cluster indices through the centroid table.
func centroidsInto(dst []float32, idx []uint8, centroids []float32) {
	for j, v := range idx {
		dst[j] = centroids[v]
	}
}

// clampDelta clamps an error delta at 0: a corrupted model scoring
// above the baseline is sampling noise, not a repair.
func clampDelta(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}

func (ev *MeasuredEvaluator) totalWeights() int {
	n := 0
	for _, cl := range ev.clustered {
		n += len(cl.Indices)
	}
	return n
}

// IsolateStream builds a config where only the named stream is stored at
// the given policy and every other structure is perfect — the Figure 5
// experiment design ("assuming perfect storage of other structures to
// isolate the impact of faults").
func IsolateStream(tech Config, stream string, p StreamPolicy) Config {
	out := Config{
		Tech:     tech.Tech,
		Encoding: tech.Encoding,
		Default:  StreamPolicy{BPC: 0},
		Overrides: map[string]StreamPolicy{
			stream: p,
		},
	}
	return out
}
