package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Xbar routes a layer through the crossbar compute-in-memory kernels:
// a dense effective-weight matrix (conductance variation and stuck-at
// faults already folded in by internal/crossbar) annotated with the
// tile geometry and the per-column ADC calibration. The kernels
// reproduce the analog dataflow: each row-tile of the crossbar
// accumulates its partial sum in the analog domain (float32 here), a
// per-column ADC quantizes that partial, and the quantized partials
// add digitally across row-tiles.
//
// Like Sparse24, the struct lives in this package so the dnn Forwarder
// can route layers through it without new dependencies; the mapping
// and fault model that *build* an Xbar live in internal/crossbar.
type Xbar struct {
	// W is the effective weight matrix, Out x In (same shape and
	// layout as the dense layer weights it replaces).
	W *Matrix
	// TileRows is the number of crossbar wordlines per tile: the
	// k-dimension is cut into ceil(In/TileRows) analog accumulation
	// windows with an ADC conversion between them.
	TileRows int
	// ADCBits is the per-column ADC resolution. The quantizer is a
	// symmetric mid-tread with 2^ADCBits codes clamped to
	// [-2^(b-1), 2^(b-1)-1] steps; values over full scale saturate.
	ADCBits int
	// FS holds the ADC full-scale range per (row-tile, output) column:
	// FS[rt*Out + j]. A non-positive entry disables quantization for
	// that column (an all-zero pristine column segment has no
	// meaningful range; its partial passes through unquantized).
	FS []float32
	// Clips counts quantizer saturation events (shared handles are
	// updated atomically, once per kernel call).
	Clips atomic.Int64
	// ClipCounter, when non-nil, additionally receives every clip
	// increment (internal/crossbar points it at the
	// crossbar.adc.clips telemetry counter).
	ClipCounter interface{ Add(n int64) }
}

// check panics on an internally inconsistent Xbar; the kernels call it
// once per entry so a mis-built handle fails loudly instead of reading
// out of bounds mid-GEMM.
func (x *Xbar) check() {
	if x.W == nil || x.TileRows < 1 || x.ADCBits < 1 {
		panic(fmt.Sprintf("tensor: invalid Xbar (W=%v tileRows=%d adcBits=%d)", x.W != nil, x.TileRows, x.ADCBits))
	}
	nrt := (x.W.Cols + x.TileRows - 1) / x.TileRows
	if len(x.FS) != nrt*x.W.Rows {
		panic(fmt.Sprintf("tensor: Xbar FS length %d != %d row-tiles x %d outputs", len(x.FS), nrt, x.W.Rows))
	}
}

// addClips publishes a kernel call's locally accumulated clip count.
func (x *Xbar) addClips(n int64) {
	if n == 0 {
		return
	}
	x.Clips.Add(n)
	if x.ClipCounter != nil {
		x.ClipCounter.Add(n)
	}
}

// quantize converts one analog partial sum through the column ADC:
// round to the nearest step of fs/2^(b-1), clamp to the code range.
// fs <= 0 passes the value through (see FS). The arithmetic is pure
// float64 -> float32 with a single math.Round, so it is deterministic
// and independent of call order.
func quantize(p, fs float32, bits int, clips *int64) float32 {
	if fs <= 0 {
		return p
	}
	half := float64(int64(1) << uint(bits-1))
	step := float64(fs) / half
	q := math.Round(float64(p) / step)
	if q > half-1 {
		q = half - 1
		*clips++
	} else if q < -half {
		q = -half
		*clips++
	}
	return float32(q * step)
}

// dotTiled computes one output element: the a-row x weight-row dot
// product with a per-row-tile ADC conversion. ar and wr have equal
// length In; fs indexes this column's full-scale per row tile.
func dotTiled(ar, wr []float32, x *Xbar, j int, clips *int64) float32 {
	in := len(wr)
	out := x.W.Rows
	var acc float32
	for lo, rt := 0, 0; lo < in; lo, rt = lo+x.TileRows, rt+1 {
		hi := lo + x.TileRows
		if hi > in {
			hi = in
		}
		var partial float32
		for p := lo; p < hi; p++ {
			av := ar[p]
			if av == 0 {
				continue // post-ReLU activations are mostly zero
			}
			partial += av * wr[p]
		}
		acc += quantize(partial, x.FS[rt*out+j], x.ADCBits, clips)
	}
	return acc
}

// MulABtXbarBand computes rows [lo, hi) of dst = a * Weffᵀ through the
// crossbar dataflow: dst[i][j] sums the ADC-quantized per-tile partial
// dot products of a's row i and Weff's row j. It is the FC twin of
// MulABtBand and runs strictly serially — the ares replica pool
// parallelizes at trial level, one Forwarder per worker.
func MulABtXbarBand(dst, a *Matrix, x *Xbar, lo, hi int) {
	x.check()
	if a.Cols != x.W.Cols {
		panic(fmt.Sprintf("tensor: MulABtXbarBand inner dims %d != %d", a.Cols, x.W.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != x.W.Rows {
		panic("tensor: MulABtXbarBand dst shape mismatch")
	}
	k, n := a.Cols, x.W.Rows
	var clips int64
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			dr[j] = dotTiled(ar, x.W.Data[j*k:(j+1)*k], x, j, &clips)
		}
	}
	x.addClips(clips)
}

// mulXbar computes dst = Weff * b (Weff is Out x K, b is K x N) with
// the per-row-tile ADC between accumulation windows — the GEMM behind
// the crossbar convolution path. scratch must hold at least N floats
// (a per-worker ConvScratch row); it carries the running analog
// partial of the current row tile.
func mulXbar(dst []float32, x *Xbar, b *Matrix, scratch []float32, clips *int64) {
	k, n := b.Rows, b.Cols
	out := x.W.Rows
	for j := 0; j < out; j++ {
		wr := x.W.Data[j*k : (j+1)*k]
		dr := dst[j*n : (j+1)*n]
		for i := range dr {
			dr[i] = 0
		}
		for lo, rt := 0, 0; lo < k; lo, rt = lo+x.TileRows, rt+1 {
			hi := lo + x.TileRows
			if hi > k {
				hi = k
			}
			part := scratch[:n]
			for i := range part {
				part[i] = 0
			}
			for p := lo; p < hi; p++ {
				wv := wr[p]
				if wv == 0 {
					continue // pruned weights stay zero rows
				}
				br := b.Data[p*n : (p+1)*n]
				for i, bv := range br {
					part[i] += wv * bv
				}
			}
			fs := x.FS[rt*out+j]
			for i, pv := range part {
				dr[i] += quantize(pv, fs, x.ADCBits, clips)
			}
		}
	}
}

// Conv2DXbarInto is Conv2DInto with the layer routed through the
// crossbar kernels: each image is lowered with im2col and multiplied
// by the effective weights with per-tile ADC quantization. It runs the
// batch serially with worker 0's scratch whatever ws.Workers says —
// the crossbar route parallelizes at trial level, one replica per
// worker.
func Conv2DXbarInto(out *Tensor4, in *Tensor4, x *Xbar, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	x.check()
	checkConv(out, in, x.W.Rows, x.W.Cols, cs)
	sc := ws.scratchFor(0)
	ohw := cs.OutH() * cs.OutW()
	sc.gemm.Reshape(1, ohw)
	var clips int64
	for n := 0; n < in.N; n++ {
		Im2colInto(&sc.patches, in, n, cs)
		mulXbar(out.Image(n), x, &sc.patches, sc.gemm.Data, &clips)
		addConvBias(out.Image(n), bias, cs)
	}
	x.addClips(clips)
}
