package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSourceSeedSensitivity(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewSource(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlapped %d times", same)
	}
}

func TestForkReproducible(t *testing.T) {
	mk := func() uint64 {
		p := NewSource(99)
		return p.Fork(5).Uint64()
	}
	if mk() != mk() {
		t.Fatal("forking is not reproducible")
	}
}

// TestForkSeedMatchesFork: a stream rebuilt from ForkSeed draws exactly
// what Fork returns, and both advance the parent identically.
func TestForkSeedMatchesFork(t *testing.T) {
	a, b := NewSource(99), NewSource(99)
	for label := uint64(1); label <= 4; label++ {
		fa, fb := a.Fork(label), NewSource(b.ForkSeed(label))
		for i := 0; i < 8; i++ {
			if x, y := fa.Uint64(), fb.Uint64(); x != y {
				t.Fatalf("label %d draw %d: Fork %#x != NewSource(ForkSeed) %#x", label, i, x, y)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("ForkSeed advanced the parent differently from Fork")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSource(3)
	f := func(_ uint8) bool {
		x := s.Float64()
		return x >= 0 && x < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	s := NewSource(4)
	for n := 1; n < 100; n++ {
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSource(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := NewSource(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	s := NewSource(6)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gaussian(5, 2)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSource(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := NewSource(9)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := NewSource(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("rate = %v, want ~0.25", rate)
	}
}

func TestZeroValueSourceUsable(t *testing.T) {
	var s Source
	_ = s.Uint64()
	_ = s.Float64()
}
