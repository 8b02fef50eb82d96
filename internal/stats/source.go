// Package stats provides the deterministic math substrate shared by every
// MaxNVM subsystem: seeded random streams, Gaussian distribution math
// (including the level-overlap integrals that drive the eNVM fault model),
// one-dimensional k-means clustering for weight quantization, histograms,
// and descriptive statistics.
//
// Everything in this package is deterministic given an explicit seed so
// that experiments are reproducible bit-for-bit.
package stats

import "math"

// Source is a deterministic pseudo-random stream based on SplitMix64.
// It is intentionally minimal: the repository needs reproducible streams
// that can be forked per subsystem (weight init, fault sampling, dataset
// synthesis) without the global coupling of math/rand's default source.
//
// A zero-value Source is valid and behaves as NewSource(0).
type Source struct {
	state     uint64
	spare     float64
	haveSpare bool
}

// NewSource returns a Source seeded with seed.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent child stream from the source. The child is
// a pure function of the parent's current state and the label, so forking
// with distinct labels yields decorrelated streams while preserving
// reproducibility.
func (s *Source) Fork(label uint64) *Source {
	return NewSource(s.ForkSeed(label))
}

// ForkSeed is Fork returning the child's seed instead of the child:
// NewSource(s.ForkSeed(label)) draws exactly what s.Fork(label) would.
// It hands a forked stream across an API that takes a seed.
func (s *Source) ForkSeed(label uint64) uint64 {
	h := s.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	h ^= h >> 31
	return h * 0xbf58476d1ce4e5b9
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two uniforms are consumed per pair of normals; the spare is
// cached.
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	var u, v float64
	for {
		u = s.Float64()
		if u > 0 {
			break
		}
	}
	v = s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	s.spare = r * math.Sin(theta)
	s.haveSpare = true
	return r * math.Cos(theta)
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (s *Source) Gaussian(mean, sigma float64) float64 {
	return mean + sigma*s.NormFloat64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
