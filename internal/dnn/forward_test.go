package dnn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

func forwardTestInput(n int) *tensor.Tensor4 {
	in := tensor.NewTensor4(n, 1, 12, 12)
	for i := range in.Data {
		in.Data[i] = float32(i%13)/13 - 0.4
	}
	return in
}

func TestForwarderMatchesModelForward(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(21)
	in := forwardTestInput(3)
	want := m.Forward(in)
	for _, workers := range []int{0, 1, 2, 7} {
		f := NewForwarder(m)
		f.Workers = workers
		got := f.Forward(in)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("workers=%d: shape %dx%d, want %dx%d",
				workers, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: logits differ at %d: %v vs %v",
					workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestForwarderReusedAcrossBatchSizes(t *testing.T) {
	// Buffers grow on demand and shrink by reslicing; results must match a
	// fresh pass after every shape change, in both directions.
	m := TinyCNN()
	m.InitWeights(23)
	f := NewForwarder(m)
	f.Workers = 1
	for _, n := range []int{2, 5, 1, 5, 3} {
		in := forwardTestInput(n)
		want := m.Forward(in)
		got := f.Forward(in)
		if got.Rows != n {
			t.Fatalf("batch %d: got %d rows", n, got.Rows)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: logits differ at %d", n, i)
			}
		}
	}
}

// residualTestModel is a conv -> conv -> add(first conv) -> gap model:
// the Add reads a non-adjacent activation.
func residualTestModel() (*Model, *tensor.Tensor4) {
	b := newBuilder("res-fwd", 1, 4, 4, 4)
	i0 := b.conv("c1", 4, 1, 0, 1, false)
	b.conv("c2", 4, 1, 0, 1, false)
	b.add("add", -1, i0, true)
	b.gap("gap")
	m := b.done(Meta{})
	m.InitWeights(2)

	in := tensor.NewTensor4(2, 1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i%5) - 2
	}
	return m, in
}

func TestForwarderResidualAdd(t *testing.T) {
	// The Add layer reads a non-adjacent activation; the Forwarder must
	// resolve layer references the same way Model.Forward does.
	m, in := residualTestModel()
	want := m.Forward(in)
	f := NewForwarder(m)
	f.Workers = 1
	got := f.Forward(in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("residual forwarder differs at %d", i)
		}
	}
}

// weightLayers returns the model-layer indices of m's weight layers.
func weightLayers(m *Model) []int {
	var out []int
	for i, l := range m.Layers {
		if l.HasWeights() {
			out = append(out, i)
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: logit %d is %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

func TestForwardFromEveryStartMatchesForward(t *testing.T) {
	// A pass started at any weight layer from a snapshot of the full
	// pass reproduces the full pass bit for bit — on the pristine
	// weights, and with that layer and every later weight layer
	// replaced (the prefix is only valid for the layers before start).
	tiny := TinyCNN()
	tiny.InitWeights(37)
	res, resIn := residualTestModel()
	for _, tc := range []struct {
		m  *Model
		in *tensor.Tensor4
	}{{tiny, forwardTestInput(5)}, {res, resIn}} {
		base := NewForwarder(tc.m)
		want := base.Forward(tc.in).Clone()
		prefix := base.Snapshot()
		f := NewForwarder(tc.m)
		f.Workers = 1
		for _, s := range weightLayers(tc.m) {
			sameBits(t, fmt.Sprintf("%s from %s", tc.m.Name, tc.m.Layers[s].Name), f.ForwardFrom(tc.in, prefix, s), want)
		}
		// Perturb layers s.. through the overlay; the full pass on a
		// fresh Forwarder with the same overlay is the reference. Before
		// each start, f runs a full pass with its first layer perturbed,
		// so its buffers for the layers before s hold activations that
		// differ from the prefix: ForwardFrom must not read them.
		ws := weightLayers(tc.m)
		for _, s := range ws {
			clear(f.Ops)
			f.Ops[ws[0]] = scaled(tc.m.Layers[ws[0]].Weights, 5)
			f.Forward(tc.in)
			clear(f.Ops)
			ref := NewForwarder(tc.m)
			for _, j := range weightLayers(tc.m) {
				if j < s {
					continue
				}
				w := scaled(tc.m.Layers[j].Weights, 3)
				f.Ops[j], ref.Ops[j] = w, w
			}
			name := fmt.Sprintf("%s from %s, perturbed", tc.m.Name, tc.m.Layers[s].Name)
			sameBits(t, name, f.ForwardFrom(tc.in, prefix, s), ref.Forward(tc.in))
		}
	}
}

// scaled returns a copy of w with entry k multiplied by 1 + k%period.
func scaled(w *tensor.Matrix, period int) *tensor.Matrix {
	out := w.Clone()
	for k := range out.Data {
		out.Data[k] *= float32(1 + k%period)
	}
	return out
}

func TestSnapshotKeepsOnlyWhatStartsRead(t *testing.T) {
	m := TinyCNN()
	m.InitWeights(41)
	in := forwardTestInput(3)
	f := NewForwarder(m)
	f.Forward(in)
	p := f.Snapshot()
	var kept []string
	var bytes int64
	for i, a := range p.acts {
		if a != nil {
			kept = append(kept, m.Layers[i].Name)
			bytes += 4 * int64(len(a.Data))
			if &a.Data[0] == &f.acts[i].Data[0] {
				t.Fatalf("%s: snapshot aliases the Forwarder's buffer", m.Layers[i].Name)
			}
		}
	}
	if got := fmt.Sprint(kept); got != "[pool1 pool2 fc1]" {
		t.Errorf("TinyCNN snapshot keeps %s, want [pool1 pool2 fc1]", got)
	}
	if p.Bytes() != bytes || bytes != 4*3*(8*6*6+16*3*3+64) {
		t.Errorf("Bytes() = %d, kept tensors hold %d", p.Bytes(), bytes)
	}

	res, resIn := residualTestModel()
	rf := NewForwarder(res)
	rf.Forward(resIn)
	rp := rf.Snapshot()
	if rp.acts[0] == nil || rp.acts[1] != nil || rp.acts[2] != nil {
		t.Errorf("residual snapshot must keep exactly c1 (read by c2 and the add)")
	}

	mustPanic(t, "snapshot before a pass", func() { NewForwarder(m).Snapshot() })
	mustPanic(t, "start without prefix", func() { f.ForwardFrom(in, nil, 2) })
	mustPanic(t, "start past the end", func() { f.ForwardFrom(in, p, len(m.Layers)) })
	mustPanic(t, "start at a pooling layer", func() { f.ForwardFrom(in, p, 1) })
	f.ForwardFrom(in, p, 2)
	mustPanic(t, "snapshot after a partial pass", func() { f.Snapshot() })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}

func TestForwarderSeesWeightPointerSwap(t *testing.T) {
	// The replica pool swaps layer Weights pointers between calls; the
	// Forwarder must read them at call time, not capture them.
	m := TinyCNN()
	m.InitWeights(29)
	in := forwardTestInput(2)
	f := NewForwarder(m)
	f.Workers = 1
	base := f.Forward(in).Clone()

	li := -1
	for i, l := range m.Layers {
		if l.HasWeights() {
			li = i
			break
		}
	}
	orig := m.Layers[li].Weights
	zeroed := tensor.NewMatrix(orig.Rows, orig.Cols)
	m.Layers[li].Weights = zeroed
	perturbed := f.Forward(in)
	same := true
	for i := range base.Data {
		if perturbed.Data[i] != base.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forwarder ignored a weight pointer swap")
	}
	m.Layers[li].Weights = orig
	back := f.Forward(in)
	for i := range base.Data {
		if back.Data[i] != base.Data[i] {
			t.Fatalf("restore after swap differs at %d", i)
		}
	}
}

func TestForwarderSteadyStateAllocFree(t *testing.T) {
	// Acceptance criterion: with Workers=1 (the replica configuration) a
	// warmed-up Forwarder allocates nothing per pass.
	m := TinyCNN()
	m.InitWeights(31)
	in := forwardTestInput(4)
	f := NewForwarder(m)
	f.Workers = 1
	f.Forward(in) // warm up buffers
	var preds []int
	preds = f.Predict(in, preds) // warm up the prediction slice too
	if allocs := testing.AllocsPerRun(10, func() { f.Forward(in) }); allocs != 0 {
		t.Errorf("Forward allocates %v per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { preds = f.Predict(in, preds) }); allocs != 0 {
		t.Errorf("Predict allocates %v per run, want 0", allocs)
	}
	prefix := f.Snapshot()
	for _, s := range weightLayers(m) {
		if allocs := testing.AllocsPerRun(10, func() { f.ForwardFrom(in, prefix, s) }); allocs != 0 {
			t.Errorf("ForwardFrom(%s) allocates %v per run, want 0", m.Layers[s].Name, allocs)
		}
	}
}
