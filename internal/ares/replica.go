package ares

import (
	"bytes"
	"runtime"
	"time"

	"repro/internal/dnn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The inference replica pool: the parallel measurement step of every
// trial route (EvalTrial, LifetimeTrial).
//
// A replica is a serial Forwarder over the evaluator's model plus the
// private buffers its overlay fills. The model is shared read-only —
// its weight layers hold the pristine clustered weights — so a trial
// checks out a replica, overlays operands on ONLY the layers it
// corrupted (Forwarder.Ops), runs the allocation-free forward pass, and
// clears the overlay on check-in. Replicas are created lazily up to
// GOMAXPROCS; with W campaign workers, W trials run inference at once.
//
// Purity argument (why the (cfg, seed) contract survives): a trial's
// corrupted weights are a pure function of (cfg, seed) — all randomness
// is drawn from stats.NewSource(seed) before measurement begins. The
// measurement itself is a deterministic function of those weights
// alone: every replica reads the same pristine model, private buffers
// are fully overwritten before use, and the Forwarder's arithmetic is
// independent of worker count and replica identity. Which replica
// serves a trial therefore cannot affect its delta.
//
// Pristine-prefix reuse: every trial measures against a base — the
// fault-free reference pass of its route (the clustered dense model,
// or the projected 2:4 model) — that kept a snapshot of its
// activations over the test set (dnn.Forwarder.Snapshot). A trial
// whose first weight layer differing from the base is layer s runs
// layers s.. only (dnn.Forwarder.ForwardFrom): the layers before s run
// the very operands the base ran, on the same input, so the snapshot
// holds bit for bit the tensors the full pass would recompute. Crossbar
// bases keep no snapshot (a trial reprograms every analog layer), and
// the reference oracle always runs the full pass.

// replica is one checked-out-able inference engine.
type replica struct {
	// fw runs over the evaluator's shared model with Workers=1:
	// trial-level parallelism already fills the machine, so kernel-level
	// goroutines would only add oversubscription and per-call
	// allocations. fw.Ops is the replica's overlay.
	fw *dnn.Forwarder
	// dense[i] and s24[i] are weight layer i's lazily materialized
	// private buffers, filled from a trial's decoded indices or
	// corrupted 2:4 compact form.
	dense []*tensor.Matrix
	s24   []*tensor.Sparse24
}

func (ev *MeasuredEvaluator) newReplica() *replica {
	fw := dnn.NewForwarder(ev.Model)
	fw.Workers = 1
	return &replica{
		fw:    fw,
		dense: make([]*tensor.Matrix, len(ev.clustered)),
		s24:   make([]*tensor.Sparse24, len(ev.clustered)),
	}
}

// overlay points the replica's Forwarder at trial t's weights: each
// layer payload becomes an operand — a ready one as is, a decoded or
// 2:4 one filled into the replica's private buffer. No dense matrix is
// allocated once the buffers exist. It returns the first model layer
// whose operand differs from the base's, or -1 if none does.
func (r *replica) overlay(ev *MeasuredEvaluator, t trial) int {
	first := -1
	for i, p := range t.layers {
		cl := ev.clustered[i]
		var op tensor.Operand
		switch {
		case p.op != nil:
			op = p.op
		case p.vals != nil:
			buf := r.s24[i]
			if buf == nil {
				buf = tensor.NewSparse24(cl.Rows, cl.Cols)
				r.s24[i] = buf
			}
			centroidsInto(buf.Val, p.vals, cl.Centroids)
			copy(buf.Pos, p.pos)
			op = buf
		case p.idx != nil && !bytes.Equal(p.idx, cl.Indices):
			// Compared against the clustered indices the model holds,
			// not the route's reference: on the Kind24 decode-to-dense
			// route a clean layer decodes to the projected indices,
			// which still differ from the model's weights.
			buf := r.dense[i]
			if buf == nil {
				buf = tensor.NewMatrix(cl.Rows, cl.Cols)
				r.dense[i] = buf
			}
			centroidsInto(buf.Data, p.idx, cl.Centroids)
			op = buf
		}
		// op == nil: the model's own weights.
		r.fw.Ops[ev.layerIdx[i]] = op
		if first < 0 && op != t.base.op(i) {
			first = ev.layerIdx[i]
		}
	}
	return first
}

// pass overlays trial t's weights and runs the forward pass over the
// test set from the first layer that differs from t's base, reading the
// layers before it from the base's prefix; with no such layer or no
// prefix it runs the whole pass. It returns the logits (valid until the
// replica's next pass).
func (r *replica) pass(ev *MeasuredEvaluator, t trial) *tensor.Matrix {
	start, prefix := r.overlay(ev, t), t.base.prefix
	if start < 0 || prefix == nil {
		start, prefix = 0, nil
	}
	ev.prefixStarts[start].Inc()
	return r.fw.ForwardFrom(ev.Test.Images, prefix, start)
}

// reset clears the overlay; private buffers are kept for reuse.
func (r *replica) reset() {
	clear(r.fw.Ops)
}

// initReplicaPool sizes the pool to GOMAXPROCS at construction time.
// Replicas are created lazily: a serial caller only ever pays for one.
func (ev *MeasuredEvaluator) initReplicaPool() {
	size := runtime.GOMAXPROCS(0)
	if size < 1 {
		size = 1
	}
	ev.replicas = make(chan *replica, size)
	ev.replicaSem = make(chan struct{}, size)
}

// checkout returns an idle replica, creating one if the pool is below
// capacity, and blocking otherwise until a trial checks one in.
func (ev *MeasuredEvaluator) checkout() *replica {
	met.replicasBusy.Add(1)
	select {
	case r := <-ev.replicas:
		return r
	default:
	}
	select {
	case r := <-ev.replicas:
		return r
	case ev.replicaSem <- struct{}{}:
		met.replicasCreated.Inc()
		return ev.newReplica()
	}
}

// checkin resets the replica to pristine and returns it to the pool.
func (ev *MeasuredEvaluator) checkin(r *replica) {
	r.reset()
	ev.replicas <- r
	met.replicasBusy.Add(-1)
}

// measure is the one measurement step of every trial route: take the
// zero-mismatch fast path when the trial is pristine (the common SLC /
// post-ECC case — the reference weights reproduce the baseline exactly,
// so the delta is 0 by construction), otherwise check out a replica,
// overlay the trial's weights, run real inference from the first layer
// that differs from the base (the whole pass when the base keeps no
// prefix), and clamp the delta against the base's error. Concurrent
// calls proceed in parallel up to the pool size.
func (ev *MeasuredEvaluator) measure(t trial) float64 {
	if t.pristine {
		met.fastHits.Inc()
		return 0
	}
	met.fastMisses.Inc()
	waitStart := time.Now()
	r := ev.checkout()
	defer ev.checkin(r)
	evalStart := time.Now()
	delta := 1 - train.AccuracyOf(r.pass(ev, t), ev.Test) - t.base.err
	met.eval.Since(evalStart)
	met.evalParallel.Since(waitStart)
	return clampDelta(delta)
}

// base is a fault-free reference model that trials measure against:
// its test-set error, the operand each weight layer runs as, and the
// activation prefix of its pass over the test set.
type base struct {
	err float64
	// ops holds one operand per weight layer; a nil slice or entry is
	// the model's own clustered weights.
	ops []tensor.Operand
	// prefix is nil when trials on this base run the full pass.
	prefix *dnn.Prefix
}

// op returns the operand weight layer i runs as in the base.
func (b *base) op(i int) tensor.Operand {
	if b.ops == nil {
		return nil
	}
	return b.ops[i]
}

// newBase measures the fault-free error of the model with ops overlaid
// (nil: the clustered weights), through exactly the kernels trials
// use, on a one-shot Forwarder outside the replica pool. With snapshot
// set the base keeps the pass's activation prefix (dnn.Prefix: only
// the activations a later start reads, ~0.6 MB for TinyCNN over a
// 300-image test set).
func (ev *MeasuredEvaluator) newBase(ops []tensor.Operand, snapshot bool) base {
	fw := dnn.NewForwarder(ev.Model)
	for i, op := range ops {
		fw.Ops[ev.layerIdx[i]] = op
	}
	b := base{err: 1 - train.AccuracyOf(fw.Forward(ev.Test.Images), ev.Test), ops: ops}
	if snapshot {
		b.prefix = fw.Snapshot()
		met.prefixBytes.Add(float64(b.prefix.Bytes()))
	}
	return b
}
