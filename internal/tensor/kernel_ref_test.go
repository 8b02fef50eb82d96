package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// The scalar reference kernels: the dense FC dot with its
// zero-activation skip, and the crossbar FC and conv kernels as they
// were before register blocking (per-partial ADC step, zero skips, conv
// in axpy form over the column-major im2col layout). They live only in
// tests; the grid below pins the production kernels bit-identical to
// them, clip counts included.

// refMulABtBand is the scalar dense dot: one accumulator, zero
// activations skipped.
func refMulABtBand(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var acc float32
			for p, av := range ar {
				if av == 0 {
					continue
				}
				acc += av * br[p]
			}
			dr[j] = acc
		}
	}
}

// refQuantize converts one analog partial sum through the column ADC,
// computing the step from fs on every call. fs <= 0 passes through.
func refQuantize(p, fs float32, bits int, clips *int64) float32 {
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

// refDotTiled computes one crossbar FC output: the a-row x weight-row
// dot product with a per-row-tile ADC conversion.
func refDotTiled(ar, wr []float32, x *Xbar, j int, clips *int64) float32 {
	in := len(wr)
	out := x.W.Rows
	var acc float32
	for lo, rt := 0, 0; lo < in; lo, rt = lo+x.TileRows, rt+1 {
		hi := min(lo+x.TileRows, in)
		var partial float32
		for p := lo; p < hi; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			partial += av * wr[p]
		}
		acc += refQuantize(partial, x.FS[rt*out+j], x.ADCBits, clips)
	}
	return acc
}

// refMulABtXbarBand is MulABtXbarBand over refDotTiled; it returns the
// clip count instead of publishing it.
func refMulABtXbarBand(dst, a *Matrix, x *Xbar, lo, hi int) int64 {
	k, n := a.Cols, x.W.Rows
	var clips int64
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			dst.Data[i*n+j] = refDotTiled(ar, x.W.Data[j*k:(j+1)*k], x, j, &clips)
		}
	}
	return clips
}

// refMulXbar computes dst = Weff * b (b is the K x N im2col matrix) in
// axpy form with the per-row-tile ADC between accumulation windows.
func refMulXbar(dst []float32, x *Xbar, b *Matrix, clips *int64) {
	k, n := b.Rows, b.Cols
	out := x.W.Rows
	part := make([]float32, n)
	for j := 0; j < out; j++ {
		wr := x.W.Data[j*k : (j+1)*k]
		dr := dst[j*n : (j+1)*n]
		clear(dr)
		for lo, rt := 0, 0; lo < k; lo, rt = lo+x.TileRows, rt+1 {
			hi := min(lo+x.TileRows, k)
			clear(part)
			for p := lo; p < hi; p++ {
				wv := wr[p]
				if wv == 0 {
					continue
				}
				for i, bv := range b.Data[p*n : (p+1)*n] {
					part[i] += wv * bv
				}
			}
			fs := x.FS[rt*out+j]
			for i, pv := range part {
				dr[i] += refQuantize(pv, fs, x.ADCBits, clips)
			}
		}
	}
}

// refConv2DXbarInto is the im2col crossbar convolution; it returns the
// clip count instead of publishing it.
func refConv2DXbarInto(out, in *Tensor4, x *Xbar, bias []float32, cs ConvShape) int64 {
	var clips int64
	for n := 0; n < in.N; n++ {
		refMulXbar(out.Image(n), x, Im2col(in, n, cs), &clips)
		addConvBias(out.Image(n), bias, cs)
	}
	return clips
}

// addConvBias adds the per-output-channel bias to one image.
func addConvBias(dst []float32, bias []float32, cs ConvShape) {
	if bias == nil {
		return
	}
	ohw := cs.OutH() * cs.OutW()
	for c := 0; c < cs.OutC; c++ {
		b := bias[c]
		plane := dst[c*ohw : (c+1)*ohw]
		for i := range plane {
			plane[i] += b
		}
	}
}

// gridRand fills n values in [-1, 1) with exact zeros and negative
// zeros mixed in, the signed zeros the dropped skips used to filter.
func gridRand(n int, seed uint64) []float32 {
	out := make([]float32, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		switch r := s >> 33; {
		case r%7 == 0:
			out[i] = 0
		case r%11 == 0:
			out[i] = float32(math.Copysign(0, -1))
		default:
			out[i] = float32(int32(s>>32)) / float32(1<<31)
		}
	}
	return out
}

// gridXbar wraps w in an Xbar whose per-(row tile, column) full scales
// span clipping, non-clipping and passthrough (0 and negative) columns.
func gridXbar(w *Matrix, tileRows, bits int, seed uint64) *Xbar {
	nrt := (w.Cols + tileRows - 1) / tileRows
	x := &Xbar{W: w, TileRows: tileRows, ADCBits: bits, FS: make([]float32, nrt*w.Rows)}
	for i, v := range gridRand(len(x.FS), seed) {
		switch {
		case i%9 == 4:
			x.FS[i] = 0
		case i%9 == 7:
			x.FS[i] = -0.5
		default:
			x.FS[i] = 0.05 + 2*float32(math.Abs(float64(v)))
		}
	}
	return x
}

func sameBits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestMulABtBandMatchesReference: the four-row dense kernel is
// bit-identical to the scalar zero-skipping dot on ragged row counts,
// sub-bands and inputs full of signed zeros.
func TestMulABtBandMatchesReference(t *testing.T) {
	for _, m := range []int{1, 3, 4, 5, 7, 9} {
		for _, k := range []int{1, 7, 33} {
			for _, n := range []int{1, 5, 10} {
				a := FromSlice(m, k, gridRand(m*k, uint64(m*100+k)))
				b := FromSlice(n, k, gridRand(n*k, uint64(n*1000+k)))
				for _, band := range [][2]int{{0, m}, {1, m}, {0, m / 2}} {
					want, got := NewMatrix(m, n), NewMatrix(m, n)
					want.Fill(42)
					got.Fill(42)
					refMulABtBand(want, a, b, band[0], band[1])
					MulABtBand(got, a, b, band[0], band[1])
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("m=%d k=%d n=%d band %v: element %d is %v, reference %v", m, k, n, band, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestXbarKernelsMatchReference is the crossbar bit-identity grid: the
// register-blocked FC kernel and the crossbar band GEMM under the
// shared conv driver against the scalar reference, outputs and clip
// counts (on the handle and on the pluggable counter) alike.
func TestXbarKernelsMatchReference(t *testing.T) {
	var totalClips int64
	split := false
	check := func(name string, x *Xbar, ext *atomic.Int64, wantClips int64, got, want []float32) {
		t.Helper()
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%s: element %d is %v, reference %v", name, i, got[i], want[i])
		}
		if c := x.Clips.Load(); c != wantClips {
			t.Fatalf("%s: Clips = %d, reference %d", name, c, wantClips)
		}
		if c := ext.Load(); c != wantClips {
			t.Fatalf("%s: ClipCounter = %d, reference %d", name, c, wantClips)
		}
		totalClips += wantClips
	}
	for _, bits := range []int{1, 3, 8} {
		// FC: rows and Out not multiples of 4, K not a multiple of the
		// tile height, tiles of one row and taller than K.
		for _, m := range []int{1, 5, 8, 10} {
			for _, k := range []int{7, 33} {
				for _, tile := range []int{1, 5, 8, k, k + 3} {
					out := 6
					a := FromSlice(m, k, gridRand(m*k, uint64(m*31+k)))
					w := FromSlice(out, k, gridRand(out*k, uint64(k*17+tile)))
					x := gridXbar(w, tile, bits, uint64(tile*7+bits))
					var ext atomic.Int64
					x.ClipCounter = counterFunc{&ext}
					want, got := NewMatrix(m, out), NewMatrix(m, out)
					wantClips := refMulABtXbarBand(want, a, x, 0, m)
					MulABtXbarBand(got, a, x, 0, m)
					check(fmt.Sprintf("fc bits=%d m=%d k=%d tile=%d", bits, m, k, tile), x, &ext, wantClips, got.Data, want.Data)
				}
			}
		}
		// Conv: stride 1 and 2, pad 0 and 1, non-square inputs and
		// kernels, a batch of two with and without bias, and on one
		// shape a batch the patch budget splits into several blocks;
		// every case runs at workspace Workers 0, 1 and 2, each with a
		// fresh handle, so the clip totals are exact per call.
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, kern := range [][2]int{{3, 3}, {3, 2}} {
					cs := ConvShape{InC: 3, OutC: 5, KH: kern[0], KW: kern[1], Pad: pad, Stride: stride, InH: 7, InW: 5}
					k := cs.InC * cs.KH * cs.KW
					ns := []int{2}
					if stride == 1 && pad == 1 && kern[1] == 3 {
						ns = append(ns, 2*convBlockImages(cs)+3)
					}
					for _, n := range ns {
						split = split || n > convBlockImages(cs)
						for _, tile := range []int{1, 4, k, k + 5} {
							in := &Tensor4{N: n, C: cs.InC, H: cs.InH, W: cs.InW, Data: gridRand(n*cs.InC*cs.InH*cs.InW, uint64(stride*10+pad+n))}
							w := FromSlice(cs.OutC, k, gridRand(cs.OutC*k, uint64(k+tile)))
							for bi, bias := range [][]float32{nil, {0.25, -0.5, 0, 1, -0.125}} {
								want := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
								wantClips := refConv2DXbarInto(want, in, gridXbar(w, tile, bits, uint64(tile*3+bits+bi)), bias, cs)
								for _, workers := range []int{0, 1, 2} {
									x := gridXbar(w, tile, bits, uint64(tile*3+bits+bi))
									var ext atomic.Int64
									x.ClipCounter = counterFunc{&ext}
									got := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
									got.Data[0] = 42 // the kernel must overwrite every element
									Conv2DXbarInto(got, in, x, bias, cs, &ConvWorkspace{Workers: workers})
									check(fmt.Sprintf("conv bits=%d stride=%d pad=%d kernel=%v N=%d tile=%d bias=%v workers=%d", bits, stride, pad, kern, n, tile, bias != nil, workers),
										x, &ext, wantClips, got.Data, want.Data)
								}
							}
						}
					}
				}
			}
		}
	}
	// One image large enough (over 64k MACs) that Workers 0 and 2 cut
	// the crossbar GEMM itself into row bands.
	cs := ConvShape{InC: 3, OutC: 16, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 24, InW: 24}
	k := cs.InC * cs.KH * cs.KW
	in := &Tensor4{N: 1, C: cs.InC, H: cs.InH, W: cs.InW, Data: gridRand(cs.InC*cs.InH*cs.InW, 5)}
	w := FromSlice(cs.OutC, k, gridRand(cs.OutC*k, 6))
	want := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	wantClips := refConv2DXbarInto(want, in, gridXbar(w, 10, 3, 7), nil, cs)
	for _, workers := range []int{0, 1, 2} {
		x := gridXbar(w, 10, 3, 7)
		var ext atomic.Int64
		x.ClipCounter = counterFunc{&ext}
		got := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
		Conv2DXbarInto(got, in, x, nil, cs, &ConvWorkspace{Workers: workers})
		check(fmt.Sprintf("conv one image %+v workers=%d", cs, workers), x, &ext, wantClips, got.Data, want.Data)
	}
	if totalClips == 0 {
		t.Fatal("no column clipped anywhere in the grid; the clip path is untested")
	}
	if !split {
		t.Fatal("no conv batch spans several patch blocks; the block loop is untested")
	}
}
