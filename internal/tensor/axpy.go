package tensor

// axpyGo is the portable twin of the SSE2 axpy kernel: dst[j] +=
// a*src[j] for every j < len(dst), each element rounded to float32
// after the multiply and again after the add. The explicit conversion
// is what keeps those two roundings: without it the compiler may fuse
// the pair into one FMA (one rounding) on arm64, ppc64, s390x or
// GOAMD64=v3, and the bits would drift from the assembly kernel. It is
// the axpy of every build without the assembly (other architectures,
// and -race builds, so the race detector sees every access), and the
// oracle the assembly kernel is tested against everywhere else.
func axpyGo(dst, src []float32, a float32) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] += float32(a * src[j])
	}
}
