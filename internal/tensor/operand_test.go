package tensor

import "testing"

// TestOperandRoutesToKernels: every Operand form, through both methods
// and at every worker bound, is bit-identical to the dense kernels on
// the weights it encodes (the crossbar form with its ADC passed
// through and one row tile, which accumulates exactly like the dense
// dot).
func TestOperandRoutesToKernels(t *testing.T) {
	cs := ConvShape{InC: 3, OutC: 5, KH: 3, KW: 3, Pad: 1, Stride: 1, InH: 9, InW: 9}
	k := cs.InC * cs.KH * cs.KW
	w24, dense := random24(cs.OutC, k, 9)
	ops := map[string]Operand{
		"matrix":   dense,
		"sparse24": w24,
		"xbar":     xbarFor(dense, k, 8, 0),
	}
	bias := []float32{0.5, -1, 0, 2, -0.25}
	in := NewTensor4(4, cs.InC, cs.InH, cs.InW)
	fillPattern(in.Data, 11, 9, 0)
	a := NewMatrix(6, k)
	fillPattern(a.Data, 7, 13, 3)

	wantConv := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
	Conv2DInto(wantConv, in, dense, bias, cs, &ConvWorkspace{Workers: 1})
	wantFC := NewMatrix(a.Rows, cs.OutC)
	MulABtBand(wantFC, a, dense, 0, a.Rows)

	for name, op := range ops {
		for _, workers := range []int{0, 1, 3} {
			out := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
			op.ConvInto(out, in, bias, cs, &ConvWorkspace{Workers: workers})
			fc := NewMatrix(a.Rows, cs.OutC)
			op.MulABt(fc, a, workers)
			for i := range wantConv.Data {
				if out.Data[i] != wantConv.Data[i] {
					t.Fatalf("%s workers=%d: conv differs at %d: %v vs %v", name, workers, i, out.Data[i], wantConv.Data[i])
				}
			}
			for i := range wantFC.Data {
				if fc.Data[i] != wantFC.Data[i] {
					t.Fatalf("%s workers=%d: FC differs at %d: %v vs %v", name, workers, i, fc.Data[i], wantFC.Data[i])
				}
			}
		}
	}
}
