package tensor

import "testing"

func TestConvShapeOutputDims(t *testing.T) {
	cs := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	if cs.OutH() != 8 || cs.OutW() != 8 {
		t.Errorf("same-padding conv output %dx%d, want 8x8", cs.OutH(), cs.OutW())
	}
	cs.Stride = 2
	if cs.OutH() != 4 || cs.OutW() != 4 {
		t.Errorf("stride-2 output %dx%d, want 4x4", cs.OutH(), cs.OutW())
	}
}

func TestConvShapeValidate(t *testing.T) {
	good := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 8, InW: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	bad := good
	bad.Stride = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero stride accepted")
	}
	tiny := good
	tiny.InH, tiny.InW, tiny.Pad = 1, 1, 0
	if err := tiny.Validate(); err == nil {
		t.Error("negative output accepted")
	}
}

// Reference direct convolution for validation.
func convRef(in *Tensor4, w *Matrix, bias []float32, cs ConvShape) *Tensor4 {
	oh, ow := cs.OutH(), cs.OutW()
	out := NewTensor4(in.N, cs.OutC, oh, ow)
	for n := 0; n < in.N; n++ {
		for oc := 0; oc < cs.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ic := 0; ic < cs.InC; ic++ {
						for kh := 0; kh < cs.KH; kh++ {
							for kw := 0; kw < cs.KW; kw++ {
								iy := oy*cs.Stride + kh - cs.Pad
								ix := ox*cs.Stride + kw - cs.Pad
								if iy < 0 || iy >= cs.InH || ix < 0 || ix >= cs.InW {
									continue
								}
								wv := w.At(oc, (ic*cs.KH+kh)*cs.KW+kw)
								s += wv * in.At(n, ic, iy, ix)
							}
						}
					}
					if bias != nil {
						s += bias[oc]
					}
					out.Set(n, oc, oy, ox, s)
				}
			}
		}
	}
	return out
}

// convGrid pins one weight form of the shared conv driver to convRef,
// bit for bit: N = 1, 6 and a batch of 120 that the patch budget splits
// into several blocks, every worker bound, stride 1/2, pad 0/1/2, bias
// nil and set, and inputs full of signed zeros. weights returns the
// form's operand and the dense matrix convRef reads.
func convGrid(t *testing.T, weights func(rows, cols int, seed uint64) (Operand, *Matrix)) {
	t.Helper()
	shapes := []ConvShape{
		{InC: 3, OutC: 5, KH: 3, KW: 3, InH: 9, InW: 7},
		{InC: 2, OutC: 5, KH: 5, KW: 3, InH: 11, InW: 11},
		{InC: 1, OutC: 8, KH: 3, KW: 3, InH: 12, InW: 12},
	}
	split := false
	for si, cs := range shapes {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				cs.Stride, cs.Pad = stride, pad
				op, dense := weights(cs.OutC, cs.InC*cs.KH*cs.KW, uint64(si*10+stride*3+pad))
				ns := []int{1, 6}
				if si == len(shapes)-1 {
					ns = append(ns, 120)
				}
				for _, n := range ns {
					split = split || n > convBlockImages(cs)
					in := &Tensor4{N: n, C: cs.InC, H: cs.InH, W: cs.InW, Data: gridRand(n*cs.InC*cs.InH*cs.InW, uint64(n*7+si))}
					for _, bias := range [][]float32{nil, gridRand(cs.OutC, 99)} {
						want := convRef(in, dense, bias, cs)
						for _, workers := range []int{0, 1, 2, 7} {
							out := NewTensor4(n, cs.OutC, cs.OutH(), cs.OutW())
							for i := range out.Data {
								out.Data[i] = 77 // dirty: the driver must overwrite every element
							}
							op.ConvInto(out, in, bias, cs, &ConvWorkspace{Workers: workers})
							if i := sameBits(out.Data, want.Data); i >= 0 {
								t.Fatalf("%+v N=%d workers=%d bias=%v: element %d is %v, reference %v",
									cs, n, workers, bias != nil, i, out.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
	if !split {
		t.Fatal("no batch spans several patch blocks; the block loop is untested")
	}
}

func TestConv2DMatchesReference(t *testing.T) {
	cs := ConvShape{InC: 3, OutC: 4, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 7, InW: 5}
	in := NewTensor4(2, cs.InC, cs.InH, cs.InW)
	for i := range in.Data {
		in.Data[i] = float32((i*13)%9) - 4
	}
	w := NewMatrix(cs.OutC, cs.InC*cs.KH*cs.KW)
	for i := range w.Data {
		w.Data[i] = float32((i*7)%5) - 2
	}
	bias := []float32{0.5, -0.5, 1, 0}
	got := Conv2D(in, w, bias, cs)
	want := convRef(in, w, bias, cs)
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("conv mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
	}
	convGrid(t, func(rows, cols int, seed uint64) (Operand, *Matrix) {
		w := FromSlice(rows, cols, gridRand(rows*cols, seed))
		return w, w
	})
}

func TestConv2DStride2(t *testing.T) {
	cs := ConvShape{InC: 2, OutC: 3, KH: 3, KW: 3, Pad: 1, Stride: 2, InH: 8, InW: 8}
	in := NewTensor4(1, cs.InC, cs.InH, cs.InW)
	for i := range in.Data {
		in.Data[i] = float32(i % 3)
	}
	w := NewMatrix(cs.OutC, cs.InC*9)
	for i := range w.Data {
		w.Data[i] = float32(i%4) - 1
	}
	got := Conv2D(in, w, nil, cs)
	want := convRef(in, w, nil, cs)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("stride-2 mismatch at %d", i)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1x1 conv with identity weights passes channels through.
	cs := ConvShape{InC: 2, OutC: 2, KH: 1, KW: 1, Pad: 0, Stride: 1, InH: 4, InW: 4}
	in := NewTensor4(1, 2, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	w := NewMatrix(2, 2)
	w.Set(0, 0, 1)
	w.Set(1, 1, 1)
	out := Conv2D(in, w, nil, cs)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv differs at %d", i)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	in := NewTensor4(1, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := MaxPool2D(in, 2)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool shape %dx%d", out.H, out.W)
	}
	want := []float32{5, 7, 13, 15}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := NewTensor4(1, 2, 2, 2)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := GlobalAvgPool2D(in)
	if out.At(0, 0) != 1.5 || out.At(0, 1) != 5.5 {
		t.Errorf("gap = %v", out.Data)
	}
}

func TestFlattenView(t *testing.T) {
	in := NewTensor4(2, 3, 2, 2)
	m := Flatten(in)
	if m.Rows != 2 || m.Cols != 12 {
		t.Fatalf("flatten shape %dx%d", m.Rows, m.Cols)
	}
	m.Data[0] = 42
	if in.Data[0] != 42 {
		t.Error("Flatten should be a view, not a copy")
	}
}

func TestIm2colZeroPaddingRegions(t *testing.T) {
	cs := ConvShape{InC: 1, OutC: 1, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 3, InW: 3}
	in := NewTensor4(1, 1, 3, 3)
	for i := range in.Data {
		in.Data[i] = 1
	}
	patches := Im2col(in, 0, cs)
	// Top-left output position, kernel position (0,0) reads padding -> 0.
	if patches.At(0, 0) != 0 {
		t.Error("padding not zero")
	}
	// Center kernel position always reads real data.
	if patches.At(4, 4) != 1 {
		t.Error("center patch wrong")
	}
}

func TestTensorAtSetRoundTrip(t *testing.T) {
	tt := NewTensor4(2, 3, 4, 5)
	tt.Set(1, 2, 3, 4, 7.5)
	if tt.At(1, 2, 3, 4) != 7.5 {
		t.Error("At/Set round trip failed")
	}
	// Linear index check.
	if tt.Data[((1*3+2)*4+3)*5+4] != 7.5 {
		t.Error("layout not NCHW")
	}
}
