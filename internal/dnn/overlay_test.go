package dnn

// Tests for the Forwarder's per-layer weight-operand overlay
// (Forwarder.Ops) across every operand form: a dense *tensor.Matrix, a
// compute-direct *tensor.Sparse24, and a crossbar *tensor.Xbar.

import (
	"testing"

	"repro/internal/tensor"
)

// project24 projects a dense weight matrix onto the 2:4 pattern in
// place (keep the 2 largest magnitudes per 4-column group) and returns
// the canonical compact form of the result.
func project24(w *tensor.Matrix) *tensor.Sparse24 {
	s := tensor.NewSparse24(w.Rows, w.Cols)
	for r := 0; r < w.Rows; r++ {
		for g := 0; g < s.GroupsPerRow; g++ {
			lim := w.Cols - g*4
			if lim > 4 {
				lim = 4
			}
			p0, p1 := -1, -1
			abs := func(p int) float32 {
				v := w.Data[r*w.Cols+g*4+p]
				if v < 0 {
					v = -v
				}
				return v
			}
			for p := 0; p < lim; p++ {
				if abs(p) == 0 {
					continue
				}
				switch {
				case p0 < 0:
					p0 = p
				case p1 < 0:
					p1 = p
				case abs(p) > abs(p1):
					p1 = p
				}
				if p1 >= 0 && abs(p1) > abs(p0) {
					p0, p1 = p1, p0
				}
			}
			if p0 >= 0 && p1 >= 0 && p1 < p0 {
				p0, p1 = p1, p0
			}
			for p := 0; p < lim; p++ {
				if p != p0 && p != p1 {
					w.Data[r*w.Cols+g*4+p] = 0
				}
			}
			e := (r*s.GroupsPerRow + g) * 2
			k := 0
			for _, p := range [2]int{p0, p1} {
				if p >= 0 {
					s.Val[e+k], s.Pos[e+k] = w.Data[r*w.Cols+g*4+p], uint8(p)
					k++
				}
			}
		}
	}
	return s
}

// passthroughXbar wraps a copy of w in a single-row-tile crossbar handle
// whose ADC is disabled on every column (FS <= 0): the crossbar kernels
// then accumulate each dot in one analog window, which is bit-identical
// to the dense kernels.
func passthroughXbar(w *tensor.Matrix) *tensor.Xbar {
	return &tensor.Xbar{W: w.Clone(), TileRows: w.Cols, ADCBits: 8, FS: make([]float32, w.Rows)}
}

// overlayForms builds, per operand form, an overlay holding exactly the
// model's (2:4-projected) dense weights — indexed like Model.Layers,
// nil for layers without weights.
func overlayForms(m *Model) map[string][]tensor.Operand {
	forms := map[string][]tensor.Operand{}
	for _, name := range []string{"matrix", "sparse24", "xbar"} {
		forms[name] = make([]tensor.Operand, len(m.Layers))
	}
	for i, l := range m.Layers {
		if !l.HasWeights() {
			continue
		}
		forms["sparse24"][i] = project24(l.Weights)
		forms["matrix"][i] = l.Weights.Clone()
		forms["xbar"][i] = passthroughXbar(l.Weights)
	}
	return forms
}

// TestForwarder24MatchesDense pins the overlay forward pass: with every
// weight layer overlaid by an operand that encodes its (2:4 projected)
// dense weights — a dense copy, the compute-direct 2:4 form, or a
// pass-through crossbar — the logits must be bit-identical to the dense
// kernels on the same weights, serial and parallel.
func TestForwarder24MatchesDense(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(37)
	forms := overlayForms(m) // projects m's weights in place
	in := forwardTestInput(3)
	want := NewForwarder(m).Forward(in).Clone() // dense kernels, projected weights

	for name, ops := range forms {
		for _, workers := range []int{0, 1, 2, 7} {
			f := NewForwarder(m)
			f.Workers = workers
			copy(f.Ops, ops)
			got := f.Forward(in)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s workers=%d: overlay logits differ at %d: %v vs %v",
						name, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestForwarder24OverlayToggle: an overlay entry takes effect on the
// next pass, and clearing it routes back to the dense weights
// immediately (the replica reset contract) — for every operand form.
func TestForwarder24OverlayToggle(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(41)
	in := forwardTestInput(2)
	f := NewForwarder(m)
	f.Workers = 1
	dense := f.Forward(in).Clone()

	li := -1
	for i, l := range m.Layers {
		if l.HasWeights() {
			li = i
			break
		}
	}
	w := m.Layers[li].Weights
	zero := tensor.NewMatrix(w.Rows, w.Cols)
	for name, op := range map[string]tensor.Operand{
		"matrix":   zero,
		"sparse24": tensor.NewSparse24(w.Rows, w.Cols), // all-pad
		"xbar":     passthroughXbar(zero),
	} {
		f.Ops[li] = op
		zeroed := f.Forward(in)
		same := true
		for i := range dense.Data {
			if zeroed.Data[i] != dense.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: forwarder ignored the overlay", name)
		}
		f.Ops[li] = nil
		back := f.Forward(in)
		for i := range dense.Data {
			if back.Data[i] != dense.Data[i] {
				t.Fatalf("%s: clearing the overlay did not restore the dense route (differs at %d)", name, i)
			}
		}
	}
}

// TestForwarder24SteadyStateAllocFree: the acceptance criterion holds on
// every overlay route — Workers=1, warmed up, 0 allocs/op.
func TestForwarder24SteadyStateAllocFree(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(43)
	in := forwardTestInput(4)
	for name, ops := range overlayForms(m) {
		f := NewForwarder(m)
		f.Workers = 1
		copy(f.Ops, ops)
		f.Forward(in)
		if allocs := testing.AllocsPerRun(10, func() { f.Forward(in) }); allocs != 0 {
			t.Errorf("%s overlay Forward allocates %v per run, want 0", name, allocs)
		}
	}
}
