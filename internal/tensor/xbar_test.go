package tensor

import (
	"math"
	"sync/atomic"
	"testing"
)

// xbarFor wraps w in an Xbar with the given tile height and per-column
// full scales (fs broadcast to every (row-tile, column) slot).
func xbarFor(w *Matrix, tileRows, bits int, fs float32) *Xbar {
	nrt := (w.Cols + tileRows - 1) / tileRows
	x := &Xbar{W: w, TileRows: tileRows, ADCBits: bits, FS: make([]float32, nrt*w.Rows)}
	for i := range x.FS {
		x.FS[i] = fs
	}
	return x
}

func denseRand(rows, cols int, seed uint64) *Matrix {
	m := NewMatrix(rows, cols)
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float32(int32(s>>33))/float32(1<<31) - 0.5
		if i%5 == 0 {
			m.Data[i] = 0 // exercise the zero-skip paths
		}
	}
	return m
}

// TestQuantize pins the symmetric mid-tread quantizer: rounding, the
// asymmetric clamp range [-2^(b-1), 2^(b-1)-1], clip counting, and the
// fs<=0 passthrough — on the reference quantizer and through the
// kernel (a 1x1 crossbar with unit weight converts a = p exactly).
func TestQuantize(t *testing.T) {
	var clips, kernelClips int64
	cases := []struct {
		p, fs float32
		bits  int
		want  float32
	}{
		{0.5, 1, 2, 0.5},    // round(0.5/0.5)=1 -> 0.5
		{0.20, 1, 2, 0},     // round(0.4)=0
		{0.9, 1, 2, 0.5},    // round(1.8)=2 clamps to half-1=1 -> 0.5 (clip)
		{-1.2, 1, 1, -1},    // round(-1.2)=-1 = -half, in range
		{-2.6, 1, 1, -1},    // clamps to -half (clip)
		{0.33, 0, 4, 0.33},  // fs<=0 passes through
		{0.33, -1, 4, 0.33}, // negative fs passes through too
		// Half-step ties: p/step is exactly ±0.5 and rounds away from
		// zero, where p*(1/step) lands just inside and rounds to 0 — the
		// reason the kernel keeps the division.
		{f32(0xbdeb3808), f32(0x3f6b3808), 3, -f32(0x3f6b3808) / 4},
		{f32(0x3e4f647f), f32(0x3fcf647f), 3, f32(0x3fcf647f) / 4},
	}
	for _, c := range cases {
		if got := refQuantize(c.p, c.fs, c.bits, &clips); got != c.want {
			t.Errorf("refQuantize(%v, fs=%v, b=%d) = %v, want %v", c.p, c.fs, c.bits, got, c.want)
		}
		x := xbarFor(FromSlice(1, 1, []float32{1}), 1, c.bits, c.fs)
		dst := NewMatrix(1, 1)
		MulABtXbarBand(dst, FromSlice(1, 1, []float32{c.p}), x, 0, 1)
		if got := dst.Data[0]; got != c.want {
			t.Errorf("kernel(%v, fs=%v, b=%d) = %v, want %v", c.p, c.fs, c.bits, got, c.want)
		}
		kernelClips += x.Clips.Load()
	}
	if clips != 2 || kernelClips != 2 {
		t.Errorf("clip counts = %d (reference), %d (kernel), want 2", clips, kernelClips)
	}
}

// TestMulABtXbarBandPassthroughParity: with a single row tile and
// quantization disabled per column (FS=0), the crossbar FC kernel
// accumulates term-for-term like MulABtBand, so the output must be
// bit-identical.
func TestMulABtXbarBandPassthroughParity(t *testing.T) {
	a := denseRand(7, 33, 1)
	w := denseRand(9, 33, 2)
	want := NewMatrix(7, 9)
	MulABtBand(want, a, w, 0, 7)
	got := NewMatrix(7, 9)
	MulABtXbarBand(got, a, xbarFor(w, 33, 8, 0), 0, 7)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("passthrough parity broken at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestMulABtXbarBandQuantizes: with a real full scale the ADC must
// actually change the result, and a coarser ADC must be at least as
// lossy as a finer one on aggregate.
func TestMulABtXbarBandQuantizes(t *testing.T) {
	a := denseRand(5, 24, 3)
	w := denseRand(6, 24, 4)
	exact := NewMatrix(5, 6)
	MulABtBand(exact, a, w, 0, 5)
	rms := func(bits int) float64 {
		got := NewMatrix(5, 6)
		MulABtXbarBand(got, a, xbarFor(w, 8, bits, 4), 0, 5)
		var ss float64
		for i := range got.Data {
			d := float64(got.Data[i] - exact.Data[i])
			ss += d * d
		}
		return math.Sqrt(ss)
	}
	coarse, fine := rms(3), rms(10)
	if coarse == 0 {
		t.Fatal("3-bit ADC changed nothing; quantization is not wired")
	}
	if fine > coarse {
		t.Fatalf("10-bit ADC lossier than 3-bit: %v > %v", fine, coarse)
	}
}

// TestXbarClipCounting: saturating columns must count clips on both the
// handle atomic and the pluggable counter.
func TestXbarClipCounting(t *testing.T) {
	a := NewMatrix(1, 4)
	w := NewMatrix(2, 4)
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range w.Data {
		w.Data[i] = 1
	}
	var ext atomic.Int64
	x := xbarFor(w, 4, 2, 0.5) // partial sum 4 vs full scale 0.5: clips
	x.ClipCounter = counterFunc{&ext}
	dst := NewMatrix(1, 2)
	MulABtXbarBand(dst, a, x, 0, 1)
	if x.Clips.Load() != 2 {
		t.Fatalf("Clips = %d, want 2 (one per saturated column)", x.Clips.Load())
	}
	if ext.Load() != 2 {
		t.Fatalf("ClipCounter = %d, want 2", ext.Load())
	}
}

func f32(bits uint32) float32 { return math.Float32frombits(bits) }

type counterFunc struct{ v *atomic.Int64 }

func (c counterFunc) Add(n int64) { c.v.Add(n) }

// TestConv2DXbarPassthroughParity: the conv route with a single tile
// and FS=0 must be bit-identical to the dense convolution.
func TestConv2DXbarPassthroughParity(t *testing.T) {
	cs := ConvShape{InC: 3, InH: 8, InW: 8, OutC: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	k := cs.InC * cs.KH * cs.KW
	w := denseRand(cs.OutC, k, 7)
	bias := []float32{0.1, -0.2, 0.3, 0, 0.5}
	in := NewTensor4(2, cs.InC, cs.InH, cs.InW)
	s := uint64(11)
	for i := range in.Data {
		s = s*6364136223846793005 + 1442695040888963407
		in.Data[i] = float32(int32(s>>33)) / float32(1<<31)
	}
	var ws ConvWorkspace
	want := NewTensor4(2, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(want, in, w, bias, cs, &ws)
	got := NewTensor4(2, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DXbarInto(got, in, xbarFor(w, k, 8, 0), bias, cs, &ws)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("conv passthrough parity broken at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConv2DXbarQuantizes: a coarse ADC on the conv route must perturb
// the output.
func TestConv2DXbarQuantizes(t *testing.T) {
	cs := ConvShape{InC: 2, InH: 6, InW: 6, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 0}
	k := cs.InC * cs.KH * cs.KW
	w := denseRand(cs.OutC, k, 13)
	in := NewTensor4(1, cs.InC, cs.InH, cs.InW)
	s := uint64(17)
	for i := range in.Data {
		s = s*6364136223846793005 + 1442695040888963407
		in.Data[i] = float32(int32(s>>33)) / float32(1<<31)
	}
	var ws ConvWorkspace
	want := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(want, in, w, nil, cs, &ws)
	got := NewTensor4(1, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DXbarInto(got, in, xbarFor(w, 6, 3, 2), nil, cs, &ws)
	same := true
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("3-bit conv ADC changed nothing; quantization is not wired")
	}
}

// TestXbarCheckPanics: a mis-built handle must fail loudly.
func TestXbarCheckPanics(t *testing.T) {
	w := NewMatrix(2, 4)
	bad := []*Xbar{
		{W: nil, TileRows: 4, ADCBits: 4},
		{W: w, TileRows: 0, ADCBits: 4},
		{W: w, TileRows: 4, ADCBits: 0},
		{W: w, TileRows: 4, ADCBits: 4, FS: make([]float32, 1)}, // wrong FS length
	}
	for i, x := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid Xbar did not panic", i)
				}
			}()
			x.check()
		}()
	}
}
