package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Forwarder runs repeated forward passes over one model with zero
// steady-state allocation: every inter-layer activation tensor, im2col
// patch buffer, and logit view is owned by the Forwarder and reused
// across calls. It exists because fault-injection campaigns evaluate
// the same test set thousands of times — with the default Forward path
// the garbage generated per trial scales with trials x test-set size.
//
// A Forwarder is NOT safe for concurrent use; run one per worker (the
// ares replica pool does exactly that). The model itself is only read,
// so any number of Forwarders may share one model concurrently. Weight
// matrices are read at call time, so swapping a layer's Weights
// pointer between calls is supported.
type Forwarder struct {
	m *Model
	// Workers bounds kernel parallelism (convolution image bands and
	// GEMM row bands). 0 means GOMAXPROCS. Set 1 when the caller
	// parallelizes at a higher level — one Forwarder per worker — which
	// also keeps the pass free of goroutine spawns and therefore
	// allocation-free in steady state.
	Workers int
	// Ops is the per-layer weight-operand overlay, indexed like
	// Model.Layers: a non-nil entry runs that layer in place of its
	// dense Weights — a private dense buffer, a compute-direct 2:4
	// matrix (bit-identical to the dense kernels on the decoded
	// weights, half the MACs), or a crossbar handle. A nil entry means
	// the layer's Weights. The overlay is per Forwarder, so Forwarders
	// sharing one model can each run different weights.
	Ops []tensor.Operand

	acts   []*tensor.Tensor4 // per-layer output buffers, grown on demand
	from   int               // start layer of the last pass (-1: none yet)
	conv   tensor.ConvWorkspace
	flat   tensor.Matrix // FC input view into the upstream activation
	view   tensor.Matrix // FC/GAP output view into acts[i]
	logits tensor.Matrix // result view into the last activation
}

// NewForwarder builds a Forwarder for m. Buffers are materialized
// lazily on the first Forward call and thereafter reused whenever the
// batch shape repeats.
func NewForwarder(m *Model) *Forwarder {
	return &Forwarder{
		m:    m,
		Ops:  make([]tensor.Operand, len(m.Layers)),
		acts: make([]*tensor.Tensor4, len(m.Layers)),
		from: -1,
	}
}

// operand returns layer i's weight operand: its overlay entry, or the
// layer's dense Weights.
func (f *Forwarder) operand(i int) tensor.Operand {
	if op := f.Ops[i]; op != nil {
		return op
	}
	return f.m.Layers[i].Weights
}

// ensure returns the layer-i output buffer with the given shape,
// reusing (or growing) the existing allocation.
func (f *Forwarder) ensure(i, n, c, h, w int) *tensor.Tensor4 {
	t := f.acts[i]
	if t != nil && t.N == n && t.C == c && t.H == h && t.W == w {
		return t
	}
	if t != nil && cap(t.Data) >= n*c*h*w {
		t.N, t.C, t.H, t.W = n, c, h, w
		t.Data = t.Data[:n*c*h*w]
		return t
	}
	t = tensor.NewTensor4(n, c, h, w)
	f.acts[i] = t
	return t
}

// Forward runs inference on a batch and returns the (N x Classes) logit
// matrix: ForwardFrom(in, nil, 0).
func (f *Forwarder) Forward(in *tensor.Tensor4) *tensor.Matrix {
	return f.ForwardFrom(in, nil, 0)
}

// ForwardFrom runs layers start.. of a forward pass and returns the
// (N x Classes) logit matrix. Every activation of a layer before start
// is read from prefix, a Snapshot of a pass over the same input, so
// start must be 0 (prefix unused, in read) or a weight layer. The
// returned matrix is a view into Forwarder-owned storage: it is valid
// until the next pass. The model must be valid (see Model.Validate);
// ForwardFrom panics on shape errors and on a prefix that lacks an
// activation the start needs.
//
// Per-element arithmetic is identical to Model.Forward for every
// Workers setting (parallelism only partitions independent rows and
// images), so a pool of Forwarders is bit-for-bit exchangeable with the
// serial path. For the same reason a pass started at layer s equals the
// full pass whenever layers before s run the operands the prefix was
// taken with: the prefix holds exactly the tensors the full pass would
// recompute.
func (f *Forwarder) ForwardFrom(in *tensor.Tensor4, prefix *Prefix, start int) *tensor.Matrix {
	if start < 0 || start >= len(f.m.Layers) || (start > 0 && prefix == nil) {
		panic(fmt.Sprintf("dnn: forward from layer %d of %d with prefix %v", start, len(f.m.Layers), prefix != nil))
	}
	f.conv.Workers = f.Workers
	f.from = start
	fetch := func(j int) *tensor.Tensor4 {
		switch {
		case j < 0:
			return in
		case j >= start:
			return f.acts[j]
		case prefix.acts[j] == nil:
			panic(fmt.Sprintf("dnn: prefix lacks layer %d's output, which a pass from layer %d reads", j, start))
		}
		return prefix.acts[j]
	}
	for i := start; i < len(f.m.Layers); i++ {
		l := f.m.Layers[i]
		x := fetch(source(i, l.Input))
		switch l.Kind {
		case Conv:
			out := f.ensure(i, x.N, l.Conv.OutC, l.Conv.OutH(), l.Conv.OutW())
			f.operand(i).ConvInto(out, x, l.Bias, l.Conv, &f.conv)
		case FC:
			out := f.ensure(i, x.N, l.OutFeatures, 1, 1)
			f.flat = tensor.Matrix{Rows: x.N, Cols: x.C * x.H * x.W, Data: x.Data}
			f.view = tensor.Matrix{Rows: x.N, Cols: l.OutFeatures, Data: out.Data}
			f.operand(i).MulABt(&f.view, &f.flat, f.Workers)
			if l.Bias != nil {
				f.view.AddBiasRows(l.Bias)
			}
		case MaxPool:
			out := f.ensure(i, x.N, x.C, x.H/l.PoolK, x.W/l.PoolK)
			tensor.MaxPool2DInto(out, x, l.PoolK)
		case GlobalAvgPool:
			out := f.ensure(i, x.N, x.C, 1, 1)
			f.view = tensor.Matrix{Rows: x.N, Cols: x.C, Data: out.Data}
			tensor.GlobalAvgPool2DInto(&f.view, x)
		case Add:
			y := fetch(source(i, l.Input2))
			out := f.ensure(i, x.N, x.C, x.H, x.W)
			copy(out.Data, x.Data)
			for j, v := range y.Data {
				out.Data[j] += v
			}
		default:
			panic(fmt.Sprintf("dnn: unknown layer kind %d", l.Kind))
		}
		if l.ReLUAfter {
			f.acts[i].ReLU()
		}
	}
	last := f.acts[len(f.acts)-1]
	f.logits = tensor.Matrix{Rows: last.N, Cols: last.C * last.H * last.W, Data: last.Data}
	return &f.logits
}

// source resolves layer i's input reference: -1 is the previous
// layer's output, which for layer 0 is the model input (-1 again).
func source(i, ref int) int {
	if ref == -1 {
		return i - 1
	}
	return ref
}

// Prefix is a snapshot of the activations one forward pass produced,
// kept so later passes over the same input can start at a weight layer
// (ForwardFrom) instead of recomputing the layers before it. It holds
// only what such a start reads, and it is never written after
// Snapshot, so any number of Forwarders may read it concurrently.
type Prefix struct {
	acts  []*tensor.Tensor4 // indexed like Model.Layers; nil = not kept
	bytes int64
}

// Bytes returns the memory the snapshot's activations occupy.
func (p *Prefix) Bytes() int64 { return p.bytes }

// Snapshot copies, from the Forwarder's last full pass, every
// activation a pass started at a later weight layer s reads: the
// outputs of layers before s that layers s.. consume — the tensor
// feeding s itself and the far inputs of residual Adds that span s.
// For TinyCNN that is pool1, pool2 and fc1. Nothing else is kept, so
// the snapshot is far smaller than the Forwarder's buffers. It
// allocates; take it once per reference model, not per pass.
func (f *Forwarder) Snapshot() *Prefix {
	if f.from != 0 {
		panic("dnn: Snapshot needs a full forward pass first")
	}
	layers := f.m.Layers
	p := &Prefix{acts: make([]*tensor.Tensor4, len(layers))}
	for s := 1; s < len(layers); s++ {
		if !layers[s].HasWeights() {
			continue
		}
		for i := s; i < len(layers); i++ {
			refs := [2]int{source(i, layers[i].Input), -1}
			if layers[i].Kind == Add {
				refs[1] = source(i, layers[i].Input2)
			}
			for _, j := range refs {
				if j >= 0 && j < s && p.acts[j] == nil {
					p.acts[j] = f.acts[j].Clone()
					p.bytes += 4 * int64(len(p.acts[j].Data))
				}
			}
		}
	}
	return p
}

// Predict returns the argmax class per batch sample, appending into dst
// (pass a recycled slice to avoid the allocation).
func (f *Forwarder) Predict(in *tensor.Tensor4, dst []int) []int {
	logits := f.Forward(in)
	dst = dst[:0]
	for r := 0; r < logits.Rows; r++ {
		dst = append(dst, logits.ArgmaxRow(r))
	}
	return dst
}
