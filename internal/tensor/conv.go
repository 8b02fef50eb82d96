package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Tensor4 is a dense NCHW float32 tensor (batch, channels, height, width).
type Tensor4 struct {
	N, C, H, W int
	Data       []float32
}

// NewTensor4 allocates a zeroed NCHW tensor.
func NewTensor4(n, c, h, w int) *Tensor4 {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic("tensor: negative tensor dimension")
	}
	return &Tensor4{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// At returns element (n, c, h, w).
func (t *Tensor4) At(n, c, h, w int) float32 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns element (n, c, h, w).
func (t *Tensor4) Set(n, c, h, w int, v float32) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Image returns a view of sample n (all channels), length C*H*W.
func (t *Tensor4) Image(n int) []float32 {
	sz := t.C * t.H * t.W
	return t.Data[n*sz : (n+1)*sz]
}

// Clone returns a deep copy.
func (t *Tensor4) Clone() *Tensor4 {
	out := NewTensor4(t.N, t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// ConvShape describes a 2-D convolution: C input channels, K output
// channels, R x S kernel, with symmetric padding and stride.
type ConvShape struct {
	InC, OutC   int
	KH, KW      int
	Pad, Stride int
	InH, InW    int
}

// OutH returns the output height.
func (c ConvShape) OutH() int { return (c.InH+2*c.Pad-c.KH)/c.Stride + 1 }

// OutW returns the output width.
func (c ConvShape) OutW() int { return (c.InW+2*c.Pad-c.KW)/c.Stride + 1 }

// Validate checks internal consistency.
func (c ConvShape) Validate() error {
	if c.InC <= 0 || c.OutC <= 0 || c.KH <= 0 || c.KW <= 0 || c.Stride <= 0 {
		return fmt.Errorf("tensor: invalid conv shape %+v", c)
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		return fmt.Errorf("tensor: conv shape %+v yields non-positive output", c)
	}
	return nil
}

// Im2col lowers the input tensor (single sample n) into a patch matrix of
// shape (InC*KH*KW) x (OutH*OutW), so that convolution becomes a single
// matrix multiplication with the (OutC) x (InC*KH*KW) weight matrix. This
// mirrors how NVDLA's convolution core consumes weights as a 2-D mapping,
// which is also the layout CSR encoding operates on (Section 3.2.1).
func Im2col(in *Tensor4, n int, cs ConvShape) *Matrix {
	out := &Matrix{}
	Im2colInto(out, in, n, cs)
	return out
}

// Im2colInto is Im2col into a reusable destination: dst is reshaped to
// (InC*KH*KW) x (OutH*OutW), zeroed (padding positions must not leak
// values from a previous image), and filled. With a recycled dst the
// call allocates nothing once the buffer has grown to the layer's size.
func Im2colInto(dst *Matrix, in *Tensor4, n int, cs ConvShape) {
	oh, ow := cs.OutH(), cs.OutW()
	dst.Reshape(cs.InC*cs.KH*cs.KW, oh*ow)
	out := dst
	for i := range out.Data {
		out.Data[i] = 0
	}
	img := in.Image(n)
	for c := 0; c < cs.InC; c++ {
		chanBase := c * cs.InH * cs.InW
		for kh := 0; kh < cs.KH; kh++ {
			for kw := 0; kw < cs.KW; kw++ {
				rowIdx := (c*cs.KH+kh)*cs.KW + kw
				dst := out.Row(rowIdx)
				for oy := 0; oy < oh; oy++ {
					iy := oy*cs.Stride + kh - cs.Pad
					if iy < 0 || iy >= cs.InH {
						continue // leave zeros (padding)
					}
					srcRow := chanBase + iy*cs.InW
					dstRow := oy * ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*cs.Stride + kw - cs.Pad
						if ix < 0 || ix >= cs.InW {
							continue
						}
						dst[dstRow+ox] = img[srcRow+ix]
					}
				}
			}
		}
	}
}

// ConvScratch holds the scratch buffers of one convolution worker: the
// patch matrix (im2col, or row-major patches on the crossbar path), the
// GEMM output that is copied out to NCHW (2:4 and crossbar paths), and
// the zero-padded image copy the crossbar lowering reads. All grow to
// the largest layer seen and are reused across calls; a scratch must
// never be shared between concurrent workers.
type ConvScratch struct {
	patches Matrix
	gemm    Matrix
	padded  []float32
}

// ConvWorkspace provides the per-worker scratch buffers Conv2DInto needs
// to run batch images in parallel without allocating. The zero value is
// ready to use. Workers bounds image-level parallelism: 0 means
// GOMAXPROCS, 1 keeps the convolution strictly serial (and the steady
// state allocation-free) for callers that already parallelize at a
// higher level, e.g. one inference replica per campaign worker. A
// workspace must not be used by two Conv2DInto calls concurrently.
type ConvWorkspace struct {
	Workers int
	scratch []*ConvScratch
}

// scratchFor returns worker w's private scratch, growing the pool on
// first use.
func (ws *ConvWorkspace) scratchFor(w int) *ConvScratch {
	for len(ws.scratch) <= w {
		ws.scratch = append(ws.scratch, &ConvScratch{})
	}
	return ws.scratch[w]
}

// Conv2D performs a batched convolution: weights is (OutC) x (InC*KH*KW),
// bias has OutC entries (may be nil). Returns an (N, OutC, OutH, OutW)
// tensor.
func Conv2D(in *Tensor4, weights *Matrix, bias []float32, cs ConvShape) *Tensor4 {
	out := NewTensor4(in.N, cs.OutC, cs.OutH(), cs.OutW())
	var ws ConvWorkspace
	Conv2DInto(out, in, weights, bias, cs, &ws)
	return out
}

// Conv2DInto is Conv2D into a caller-owned output tensor, parallelized
// across batch images: each worker lowers and multiplies its own images
// with a private ConvScratch, so no scratch state is shared between
// goroutines and a reused workspace allocates nothing in steady state.
// Single-image batches fall back to row-band parallelism inside the
// GEMM instead. Per-element arithmetic is identical for every worker
// count.
func Conv2DInto(out *Tensor4, in *Tensor4, weights *Matrix, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	checkConv(out, in, weights.Rows, weights.Cols, cs)
	workers := ws.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > in.N {
		workers = in.N
	}
	if workers <= 1 {
		// One image (or one worker): the only parallelism worth having is
		// row bands inside the GEMM; the caller's Workers bound still
		// applies so replica-style callers stay goroutine-free.
		sc := ws.scratchFor(0)
		k, ohw := cs.InC*cs.KH*cs.KW, cs.OutH()*cs.OutW()
		for n := 0; n < in.N; n++ {
			Im2colInto(&sc.patches, in, n, cs)
			mulParallel(out.Image(n), weights, &sc.patches, cs.OutC, k, ohw, ws.Workers)
			addConvBias(out.Image(n), bias, cs)
		}
		return
	}
	var wg sync.WaitGroup
	band := (in.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
		hi := lo + band
		if hi > in.N {
			hi = in.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int, sc *ConvScratch) {
			defer wg.Done()
			convImages(out, in, weights, bias, cs, sc, lo, hi)
		}(lo, hi, ws.scratchFor(w))
	}
	wg.Wait()
}

// convImages runs images [lo, hi) serially with one private scratch: the
// per-image GEMM goes straight into the output tensor (mulBand clears
// its destination rows itself, so no zero fill or product copy is
// needed).
func convImages(out, in *Tensor4, weights *Matrix, bias []float32, cs ConvShape, sc *ConvScratch, lo, hi int) {
	k, ohw := cs.InC*cs.KH*cs.KW, cs.OutH()*cs.OutW()
	for n := lo; n < hi; n++ {
		Im2colInto(&sc.patches, in, n, cs)
		mulBand(out.Image(n), weights, &sc.patches, 0, cs.OutC, k, ohw)
		addConvBias(out.Image(n), bias, cs)
	}
}

// addConvBias adds the per-output-channel bias to one image.
func addConvBias(dst []float32, bias []float32, cs ConvShape) {
	if bias == nil {
		return
	}
	ohw := cs.OutH() * cs.OutW()
	for c := 0; c < cs.OutC; c++ {
		b := bias[c]
		plane := dst[c*ohw : (c+1)*ohw]
		for i := range plane {
			plane[i] += b
		}
	}
}

// MaxPool2D applies non-overlapping k x k max pooling with stride k.
func MaxPool2D(in *Tensor4, k int) *Tensor4 {
	out := NewTensor4(in.N, in.C, in.H/k, in.W/k)
	MaxPool2DInto(out, in, k)
	return out
}

// MaxPool2DInto is MaxPool2D into a caller-owned (N, C, H/k, W/k)
// output tensor; it allocates nothing. The window walk runs on raw
// channel-plane slices instead of At/Set index arithmetic — max is
// order-independent, so the result is identical to the naive loop.
func MaxPool2DInto(out *Tensor4, in *Tensor4, k int) {
	oh, ow := in.H/k, in.W/k
	if out.N != in.N || out.C != in.C || out.H != oh || out.W != ow {
		panic("tensor: max-pool output shape mismatch")
	}
	planes := in.N * in.C
	if k == 2 {
		// The zoo's only window size gets a branch-free body: builtin max
		// compiles to a conditional move, where the general path's
		// `if v > best` mispredicts constantly on activation data (~4x
		// slower). Builtin max differs from `>` only on NaN and -0/+0
		// ties, neither of which forward activations contain.
		for p := 0; p < planes; p++ {
			src := in.Data[p*in.H*in.W : (p+1)*in.H*in.W]
			dst := out.Data[p*oh*ow : (p+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				dr := dst[oy*ow : (oy+1)*ow : (oy+1)*ow]
				s0 := src[(oy*2)*in.W : (oy*2)*in.W+2*ow]
				s1 := src[(oy*2+1)*in.W : (oy*2+1)*in.W+2*ow]
				for ox := 0; ox < ow; ox++ {
					dr[ox] = max(max(s0[2*ox], s0[2*ox+1]), max(s1[2*ox], s1[2*ox+1]))
				}
			}
		}
		return
	}
	for p := 0; p < planes; p++ {
		src := in.Data[p*in.H*in.W : (p+1)*in.H*in.W]
		dst := out.Data[p*oh*ow : (p+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			dr := dst[oy*ow : (oy+1)*ow]
			for dy := 0; dy < k; dy++ {
				sr := src[(oy*k+dy)*in.W : (oy*k+dy+1)*in.W]
				if dy == 0 {
					for ox := 0; ox < ow; ox++ {
						best := sr[ox*k]
						for dx := 1; dx < k; dx++ {
							if v := sr[ox*k+dx]; v > best {
								best = v
							}
						}
						dr[ox] = best
					}
					continue
				}
				for ox := 0; ox < ow; ox++ {
					best := dr[ox]
					for dx := 0; dx < k; dx++ {
						if v := sr[ox*k+dx]; v > best {
							best = v
						}
					}
					dr[ox] = best
				}
			}
		}
	}
}

// GlobalAvgPool2D reduces each channel plane to its mean, producing an
// (N x C) matrix. Used by ResNet-style heads.
func GlobalAvgPool2D(in *Tensor4) *Matrix {
	out := NewMatrix(in.N, in.C)
	GlobalAvgPool2DInto(out, in)
	return out
}

// GlobalAvgPool2DInto is GlobalAvgPool2D into a reusable matrix (it is
// reshaped to N x C, reusing its backing array when large enough).
func GlobalAvgPool2DInto(out *Matrix, in *Tensor4) {
	out.Reshape(in.N, in.C)
	plane := in.H * in.W
	if plane == 0 {
		for i := range out.Data {
			out.Data[i] = 0
		}
		return
	}
	inv := 1 / float32(plane)
	for n := 0; n < in.N; n++ {
		img := in.Image(n)
		for c := 0; c < in.C; c++ {
			var s float32
			for _, v := range img[c*plane : (c+1)*plane] {
				s += v
			}
			out.Set(n, c, s*inv)
		}
	}
}

// Flatten reshapes the tensor into an (N x C*H*W) matrix view (no copy).
func Flatten(in *Tensor4) *Matrix {
	return FromSlice(in.N, in.C*in.H*in.W, in.Data)
}

// ReLU applies max(0, x) elementwise in place.
func (t *Tensor4) ReLU() {
	reluInPlace(t.Data)
}
