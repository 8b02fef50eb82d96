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

// xbarBand is the crossbar FC kernel: rows [lo, hi) of dst = a * Weffᵀ
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
// crossbar: the shared conv driver with Xbar.mulBand as its band GEMM.
// Each output sums the same quantized partials in the same order as
// the im2col formulation, for every ws.Workers value, and the call's
// clips are published once at the end.
func Conv2DXbarInto(out *Tensor4, in *Tensor4, x *Xbar, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	x.check()
	checkConv(out, in, x.W.Rows, x.W.Cols, cs)
	x.addClips(conv2D(out, in, x, bias, cs, ws))
}

// xbarChunk is the number of output columns Xbar.mulBand accumulates
// per pass: the analog partial row is a stack array of that width
// (2 KB), private to the goroutine running the band and cache-resident
// while the tile's patch rows stream past it.
const xbarChunk = 512

// mulBand computes rows [lo, hi) of dst = Weff * b (b is the K x N
// im2col patch block) through the crossbar dataflow, the crossbar band
// GEMM of the shared conv driver, and returns its clip count. For each
// output row and each column chunk it walks the row tiles in order: the
// partial row is cleared, takes one axpy per nonzero weight of the
// tile in ascending p (the dense kernel's zero skip), then each partial
// is quantized as xbarBand quantizes (division, math.Round, clamp; fs
// <= 0 passes through) and added into the output row. The quantizer is
// written out in both kernels: as a function call it does not inline,
// and the call made the crossbar forward pass about 1.6x slower. This is the
// column-major form of the conv reference, term for term, so the bits
// match it.
func (x *Xbar) mulBand(dst []float32, b *Matrix, lo, hi int) int64 {
	k, n, out, tr := x.W.Cols, b.Cols, x.W.Rows, x.TileRows
	half := float64(int64(1) << uint(x.ADCBits-1))
	var part [xbarChunk]float32
	var clips int64
	for i := lo; i < hi; i++ {
		wr := x.W.Data[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		clear(dr)
		for c0 := 0; c0 < n; c0 += xbarChunk {
			c1 := min(c0+xbarChunk, n)
			d, pt := dr[c0:c1], part[:c1-c0]
			for p0, rt := 0, 0; p0 < k; p0, rt = p0+tr, rt+1 {
				clear(pt)
				for p := p0; p < min(p0+tr, k); p++ {
					if wv := wr[p]; wv != 0 {
						axpy(pt, b.Data[p*n+c0:p*n+c1], wv)
					}
				}
				fs := x.FS[rt*out+i]
				if fs <= 0 {
					for j, v := range pt {
						d[j] += v
					}
					continue
				}
				step := float64(fs) / half
				for j, v := range pt {
					q := math.Round(float64(v) / step)
					if q > half-1 {
						q = half - 1
						clips++
					} else if q < -half {
						q = -half
						clips++
					}
					d[j] += float32(q * step)
				}
			}
		}
	}
	return clips
}
