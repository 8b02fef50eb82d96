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
// matrix. The returned matrix is a view into Forwarder-owned storage:
// it is valid until the next Forward call. The model must be valid (see
// Model.Validate); Forward panics on shape errors.
//
// Per-element arithmetic is identical to Model.Forward for every
// Workers setting (parallelism only partitions independent rows and
// images), so a pool of Forwarders is bit-for-bit exchangeable with the
// serial path.
func (f *Forwarder) Forward(in *tensor.Tensor4) *tensor.Matrix {
	f.conv.Workers = f.Workers
	fetch := func(i, ref int) *tensor.Tensor4 {
		if ref == -1 {
			if i == 0 {
				return in
			}
			return f.acts[i-1]
		}
		return f.acts[ref]
	}
	for i, l := range f.m.Layers {
		x := fetch(i, l.Input)
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
			y := fetch(i, l.Input2)
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
