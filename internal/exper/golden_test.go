package exper

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSearchGolden pins the design-space search end to end: the
// Figure 6 exploration and the per-layer selection for LeNet5 at the
// maxnvm defaults (seed 1, 1<<18 weights per layer, 3 damage trials)
// must match the checked-in renderings byte for byte. Any change to the
// surrogate damage model, the policy search or the cost accounting that
// moves a printed number shows up here.
func TestSearchGolden(t *testing.T) {
	env := NewEnv(1)
	for _, tc := range []struct {
		file   string
		render func(io.Writer)
	}{
		{"fig6_lenet5.golden", func(w io.Writer) { env.Fig6(w, "LeNet5") }},
		{"perlayer_lenet5.golden", func(w io.Writer) { env.PerLayer(w, []string{"LeNet5"}) }},
	} {
		var buf bytes.Buffer
		tc.render(&buf)
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted\n--- got ---\n%s--- want ---\n%s", tc.file, buf.Bytes(), want)
		}
	}
}
