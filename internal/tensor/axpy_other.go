//go:build !amd64 || race

package tensor

// axpy computes dst[j] += a*src[j] for every j < len(dst); src must be
// at least as long as dst. Without the amd64 assembly it is the
// portable twin.
func axpy(dst, src []float32, a float32) {
	axpyGo(dst, src, a)
}
