package tensor

import "fmt"

// Operand is a layer weight matrix W in whichever form the forward pass
// runs it: dense (*Matrix), compute-direct 2:4 (*Sparse24), or crossbar
// compute-in-memory (*Xbar). Each form keeps its own kernels; the
// interface only routes a layer to them, so a forward pass needs one
// call per layer whatever the weight format.
type Operand interface {
	// MulABt computes dst = a * Wᵀ (the fully-connected layer). workers
	// bounds row-band parallelism as ConvWorkspace.Workers does: 1 runs
	// the serial band kernel (no goroutines, no allocation), 0 means
	// GOMAXPROCS.
	MulABt(dst, a *Matrix, workers int)
	// ConvInto convolves in into out with W as the (OutC) x
	// (InC*KH*KW) kernel matrix; ws supplies the scratch and the worker
	// bound (see Conv2DInto).
	ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace)
}

// MulABt implements Operand with the dense kernels.
func (m *Matrix) MulABt(dst, a *Matrix, workers int) {
	checkMulABt(dst, a, m.Rows, m.Cols)
	if nb := bandCount(a.Rows, workers, a.Rows*a.Cols*m.Rows); nb > 1 {
		runBands(a.Rows, nb, func(_, lo, hi int) { MulABtBand(dst, a, m, lo, hi) })
		return
	}
	MulABtBand(dst, a, m, 0, a.Rows)
}

// ConvInto implements Operand with Conv2DInto.
func (m *Matrix) ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	Conv2DInto(out, in, m, bias, cs, ws)
}

// MulABt implements Operand with the compute-direct 2:4 kernels.
func (w *Sparse24) MulABt(dst, a *Matrix, workers int) {
	checkMulABt(dst, a, w.Rows, w.Cols)
	if nb := bandCount(a.Rows, workers, a.Rows*a.Cols*w.Rows); nb > 1 {
		runBands(a.Rows, nb, func(_, lo, hi int) { MulABt24Band(dst, a, w, lo, hi) })
		return
	}
	MulABt24Band(dst, a, w, 0, a.Rows)
}

// ConvInto implements Operand with the shared conv driver and the 2:4
// band GEMM.
func (w *Sparse24) ConvInto(out, in *Tensor4, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	checkConv(out, in, w.Rows, w.Cols, cs)
	conv2D(out, in, w, bias, cs, ws)
}

// MulABt implements Operand with the crossbar FC kernel. It ignores
// workers: that kernel is serial, and the route parallelizes at trial
// level instead.
func (x *Xbar) MulABt(dst, a *Matrix, _ int) {
	MulABtXbarBand(dst, a, x, 0, a.Rows)
}

// ConvInto implements Operand with Conv2DXbarInto, the shared conv
// driver with the crossbar band GEMM.
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

// checkMulABt panics unless dst = a * Wᵀ fits a rows x cols W.
func checkMulABt(dst, a *Matrix, rows, cols int) {
	if a.Cols != cols {
		panic(fmt.Sprintf("tensor: MulABt inner dims %d != %d", a.Cols, cols))
	}
	if dst.Rows != a.Rows || dst.Cols != rows {
		panic("tensor: MulABt dst shape mismatch")
	}
}
