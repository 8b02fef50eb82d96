package tensor

import "fmt"

// Operand is a layer weight matrix W in whichever form the forward pass
// runs it: dense (*Matrix), compute-direct 2:4 (*Sparse24), or crossbar
// compute-in-memory (*Xbar). Each form keeps its own kernels; the
// interface only routes a layer to them, so a forward pass needs one
// call per layer whatever the weight format.
type Operand interface {
	// MulABt computes dst = a * Wᵀ (the fully-connected layer). workers
	// bounds parallelism: 1 runs the serial band kernel (no goroutines,
	// no allocation), any other value the row-band parallel kernel.
	MulABt(dst, a *Matrix, workers int)
	// ConvInto convolves in into out with W as the (OutC) x
	// (InC*KH*KW) kernel matrix; ws supplies the scratch and the worker
	// bound (see Conv2DInto).
	ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace)
}

// MulABt implements Operand with the dense kernels.
func (m *Matrix) MulABt(dst, a *Matrix, workers int) {
	if workers == 1 {
		MulABtBand(dst, a, m, 0, a.Rows)
		return
	}
	MulABtInto(dst, a, m)
}

// ConvInto implements Operand with Conv2DInto.
func (m *Matrix) ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	Conv2DInto(out, in, m, bias, cs, ws)
}

// MulABt implements Operand with the compute-direct 2:4 kernels.
func (w *Sparse24) MulABt(dst, a *Matrix, workers int) {
	if workers == 1 {
		MulABt24Band(dst, a, w, 0, a.Rows)
		return
	}
	MulABt24Into(dst, a, w)
}

// ConvInto implements Operand with Conv2D24Into.
func (w *Sparse24) ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	Conv2D24Into(out, in, w, bias, cs, ws)
}

// MulABt implements Operand with the crossbar kernel. It ignores
// workers: the crossbar kernels are serial, and the route parallelizes
// at trial level instead.
func (x *Xbar) MulABt(dst, a *Matrix, _ int) {
	MulABtXbarBand(dst, a, x, 0, a.Rows)
}

// ConvInto implements Operand with Conv2DXbarInto.
func (x *Xbar) ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	Conv2DXbarInto(out, in, x, bias, cs, ws)
}

// checkConv panics unless a rows x cols weight matrix, the input, and
// the output all fit cs — the shape contract every Conv2D*Into shares.
func checkConv(out, in *Tensor4, rows, cols int, cs ConvShape) {
	if err := cs.Validate(); err != nil {
		panic(err)
	}
	if rows != cs.OutC || cols != cs.InC*cs.KH*cs.KW {
		panic(fmt.Sprintf("tensor: conv weight shape %dx%d incompatible with %+v", rows, cols, cs))
	}
	if in.C != cs.InC || in.H != cs.InH || in.W != cs.InW {
		panic("tensor: conv input shape mismatch")
	}
	if out.N != in.N || out.C != cs.OutC || out.H != cs.OutH() || out.W != cs.OutW() {
		panic("tensor: conv output shape mismatch")
	}
}
