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

// xbarBand is the one crossbar kernel: rows [lo, hi) of dst = a * Weffᵀ
// (a is M x K row-major, dst M x Out) with a per-row-tile ADC
// conversion between accumulation windows. It returns the clip count.
//
// Four rows of a are taken per pass (a ragged last pass re-reads its
// last row in the spare slots and discards those results): each weight
// row tile is loaded once and feeds four independent accumulator
// chains, and the column's ADC step fs/2^(bits-1) is computed once for
// the partials it quantizes. The quantizer is a symmetric mid-tread:
// round to the nearest step, clamp to the code range [-half, half-1],
// count a clip per clamp; fs <= 0 passes the partial through. The step
// is the same float64 value for every partial, and the division stays
// (a reciprocal multiply rounds differently), so each conversion is a
// pure function of (partial, fs, bits).
//
// There is no zero-activation skip. Each output still sums its own
// products in ascending-p order, so the only terms the skip used to
// drop are products with a zero factor, i.e. ±0 — and a partial seeded
// at +0 never holds -0 (+0 plus any signed zero is +0, and a + (-a)
// rounds to +0), so adding them changes no bit. That argument needs
// finite weights (0 * Inf is NaN); every trial route builds finite
// operands.
func xbarBand(dst, a *Matrix, x *Xbar, lo, hi int) int64 {
	k, n := a.Cols, x.W.Rows
	tr := x.TileRows
	half := float64(int64(1) << uint(x.ADCBits-1))
	var clips int64
	for i := lo; i < hi; i += 4 {
		nr := min(4, hi-i)
		row := func(r int) []float32 {
			r = i + min(r, nr-1)
			return a.Data[r*k : (r+1)*k : (r+1)*k]
		}
		ar0, ar1, ar2, ar3 := row(0), row(1), row(2), row(3)
		for j := 0; j < n; j++ {
			wr := x.W.Data[j*k : (j+1)*k : (j+1)*k]
			var acc [4]float32
			for p0, rt := 0, 0; p0 < k; p0, rt = p0+tr, rt+1 {
				p1 := min(p0+tr, k)
				w := wr[p0:p1]
				b0, b1, b2, b3 := ar0[p0:p1][:len(w)], ar1[p0:p1][:len(w)], ar2[p0:p1][:len(w)], ar3[p0:p1][:len(w)]
				var s0, s1, s2, s3 float32
				for p, wv := range w {
					s0 += b0[p] * wv
					s1 += b1[p] * wv
					s2 += b2[p] * wv
					s3 += b3[p] * wv
				}
				fs := x.FS[rt*n+j]
				if fs <= 0 {
					part := [4]float32{s0, s1, s2, s3}
					for r := 0; r < nr; r++ {
						acc[r] += part[r]
					}
					continue
				}
				// All four divisions issue before the first rounding
				// branch, so a mispredict there cannot serialize them.
				step := float64(fs) / half
				quo := [4]float64{float64(s0) / step, float64(s1) / step, float64(s2) / step, float64(s3) / step}
				for r := 0; r < nr; r++ {
					q := math.Round(quo[r])
					if q > half-1 {
						q = half - 1
						clips++
					} else if q < -half {
						q = -half
						clips++
					}
					acc[r] += float32(q * step)
				}
			}
			for r := 0; r < nr; r++ {
				dst.Data[(i+r)*n+j] = acc[r]
			}
		}
	}
	return clips
}

// MulABtXbarBand computes rows [lo, hi) of dst = a * Weffᵀ through the
// crossbar dataflow: dst[i][j] sums the ADC-quantized per-tile partial
// dot products of a's row i and Weff's row j. It is the FC twin of
// MulABtBand and runs strictly serially — the ares replica pool
// parallelizes at trial level, one Forwarder per worker. Weff must be
// finite (see xbarBand).
func MulABtXbarBand(dst, a *Matrix, x *Xbar, lo, hi int) {
	x.check()
	if a.Cols != x.W.Cols {
		panic(fmt.Sprintf("tensor: MulABtXbarBand inner dims %d != %d", a.Cols, x.W.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != x.W.Rows {
		panic("tensor: MulABtXbarBand dst shape mismatch")
	}
	x.addClips(xbarBand(dst, a, x, lo, hi))
}

// Conv2DXbarInto is Conv2DInto with the layer routed through the
// crossbar kernel. Each image is lowered to a row-major patch matrix,
// (OutH*OutW) x (InC*KH*KW), one patch per output position laid out
// like a weight row, so the convolution is xbarBand with the output
// positions as rows; the result is copied out to NCHW and the bias
// added. Each output sums the same products in the same order as the
// im2col formulation, so the bits match it. The batch runs serially
// with worker 0's scratch whatever ws.Workers says — the crossbar
// route parallelizes at trial level, one replica per worker.
func Conv2DXbarInto(out *Tensor4, in *Tensor4, x *Xbar, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	x.check()
	checkConv(out, in, x.W.Rows, x.W.Cols, cs)
	sc := ws.scratchFor(0)
	ohw := cs.OutH() * cs.OutW()
	sc.gemm.Reshape(ohw, cs.OutC)
	var clips int64
	for n := 0; n < in.N; n++ {
		sc.lowerRows(in, n, cs)
		clips += xbarBand(&sc.gemm, &sc.patches, x, 0, ohw)
		img := out.Image(n)
		for c := 0; c < cs.OutC; c++ {
			plane := img[c*ohw : (c+1)*ohw]
			for pos := range plane {
				plane[pos] = sc.gemm.Data[pos*cs.OutC+c]
			}
		}
		addConvBias(img, bias, cs)
	}
	x.addClips(clips)
}

// lowerRows lowers image n of in into sc.patches as a row-major patch
// matrix: row oy*OutW+ox holds the receptive field of output (oy, ox)
// in (c, kh, kw) order, the column order of the conv weight matrix.
// With Pad > 0 the image is first copied into a zero-padded plane, so
// every (c, kh) segment of a patch is one contiguous run of KW values.
func (sc *ConvScratch) lowerRows(in *Tensor4, n int, cs ConvShape) {
	oh, ow := cs.OutH(), cs.OutW()
	k := cs.InC * cs.KH * cs.KW
	sc.patches.Reshape(oh*ow, k)
	src, h, w := in.Image(n), cs.InH, cs.InW
	if p := cs.Pad; p > 0 {
		h, w = cs.InH+2*p, cs.InW+2*p
		if need := cs.InC * h * w; cap(sc.padded) < need {
			sc.padded = make([]float32, need)
		} else {
			sc.padded = sc.padded[:need]
		}
		clear(sc.padded)
		for c := 0; c < cs.InC; c++ {
			for y := 0; y < cs.InH; y++ {
				row := src[(c*cs.InH+y)*cs.InW : (c*cs.InH+y+1)*cs.InW]
				copy(sc.padded[(c*h+y+p)*w+p:], row)
			}
		}
		src = sc.padded
	}
	kw, plane := cs.KW, h*w
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := sc.patches.Data[(oy*ow+ox)*k : (oy*ow+ox+1)*k]
			corner := oy*cs.Stride*w + ox*cs.Stride
			o := 0
			for c := 0; c < cs.InC; c++ {
				off := c*plane + corner
				for kh := 0; kh < cs.KH; kh++ {
					// An element loop, not the copy builtin: at the
					// zoo's kernel widths (3 to 7) a memmove call costs
					// more than the copy itself.
					seg, from := row[o:o+kw], src[off:off+kw]
					for i := range seg {
						seg[i] = from[i]
					}
					o += kw
					off += w
				}
			}
		}
	}
}
