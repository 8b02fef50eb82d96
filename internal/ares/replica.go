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
// allocated once the buffers exist.
func (r *replica) overlay(ev *MeasuredEvaluator, t trial) {
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
		default:
			continue // the model's own weights
		}
		r.fw.Ops[ev.layerIdx[i]] = op
	}
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
// overlay the trial's weights, run real inference, and clamp the delta
// against the trial's baseline. Concurrent calls proceed in parallel up
// to the pool size.
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
	r.overlay(ev, t)
	delta := train.ErrorWith(r.fw, ev.Test) - t.baseline
	met.eval.Since(evalStart)
	met.evalParallel.Since(waitStart)
	return clampDelta(delta)
}

// baselineWith measures the fault-free error of the model with one
// operand per weight layer, through exactly the kernels trials use: the
// projected-model (2:4) and mapped-model (crossbar) baselines. It runs
// a one-shot serial Forwarder, outside the replica pool.
func (ev *MeasuredEvaluator) baselineWith(ops []tensor.Operand) float64 {
	fw := dnn.NewForwarder(ev.Model)
	fw.Workers = 1
	for i, op := range ops {
		fw.Ops[ev.layerIdx[i]] = op
	}
	return train.ErrorWith(fw, ev.Test)
}
