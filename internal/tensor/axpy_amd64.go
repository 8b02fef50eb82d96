//go:build amd64 && !race

package tensor

// axpySSE is axpyGo in SSE2 assembly (axpy_amd64.s), four lanes per
// MULPS/ADDPS. It reads len(dst) elements of src.
//
//go:noescape
func axpySSE(dst, src []float32, a float32)

// axpy computes dst[j] += a*src[j] for every j < len(dst); src must be
// at least as long as dst. It is the inner loop of every convolution
// GEMM band kernel (dense, 2:4 and crossbar) and of MulInto.
func axpy(dst, src []float32, a float32) {
	axpySSE(dst, src[:len(dst)], a)
}
