package tensor

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// Kernel telemetry: groups walked and dense multiply-accumulates skipped
// by the compute-direct 2:4 kernels. Both are computed analytically from
// the call shape and published with one atomic Add per kernel call —
// never per element.
//
// Metric names:
//
//	sparse.gemm24.groups        4-column groups walked by 2:4 kernels
//	sparse.gemm24.skipped_macs  MACs a dense kernel would have issued on
//	                            positions the 2:4 format does not store
var met24 = struct {
	groups, skippedMACs *telemetry.Counter
}{
	groups:      telemetry.Default().Counter("sparse.gemm24.groups"),
	skippedMACs: telemetry.Default().Counter("sparse.gemm24.skipped_macs"),
}

// Sparse24 is a weight matrix in compute-direct 2:4 structured-sparse
// form: 2 stored (value, in-group position) entries per group of 4
// columns, row-major. It is the float-space twin of sparse.E24 — the
// evaluator maps decoded cluster indices through the centroid table into
// Val without ever materializing a dense matrix.
//
// Contract: entries must be in canonical compact form — within each
// group, nonzero values first in ascending position (each position in
// [0, 4) and, in a partial trailing group, within the matrix), then
// (0, 0) pads. The kernels trust this: it guarantees in-bounds gathers
// and the exact ascending-column accumulation order of the dense
// kernels, which is what makes them bit-identical (see MulABt24Band).
// sparse.(*E24).CompactInto emits exactly this form.
type Sparse24 struct {
	Rows, Cols int
	// GroupsPerRow is ceil(Cols/4).
	GroupsPerRow int
	// Val and Pos hold 2*GroupsPerRow entries per row.
	Val []float32
	Pos []uint8
}

// NewSparse24 allocates an all-zero (all-pad) rows x cols 2:4 matrix.
func NewSparse24(rows, cols int) *Sparse24 {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	gpr := (cols + 3) / 4
	n := rows * gpr * 2
	return &Sparse24{
		Rows: rows, Cols: cols, GroupsPerRow: gpr,
		Val: make([]float32, n), Pos: make([]uint8, n),
	}
}

// mul24Band computes rows [lo, hi) of dst = w*b where w is 2:4 compact:
// the twin of mulBand with the entry loop over stored entries instead of
// all k columns. Canonical entry order means the surviving b-rows are
// walked in the same ascending-p order as mulBand walking the decoded
// dense matrix (unstored and zero-valued positions contribute nothing
// there because mulBand skips zero weights), so dst is bit-identical to
// the dense kernel on the decoded matrix — with at most half the MACs.
func mul24Band(dst []float32, w *Sparse24, b *Matrix, lo, hi, n int) {
	gpr := w.GroupsPerRow
	ne := 2 * gpr
	for i := lo; i < hi; i++ {
		dr := dst[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		wr := w.Val[i*ne : (i+1)*ne : (i+1)*ne]
		pr := w.Pos[i*ne : (i+1)*ne : (i+1)*ne]
		col := 0
		for e := 0; e < len(wr); e++ {
			wv := wr[e]
			if wv != 0 { // pads (and zero centroids) contribute nothing
				p := col + int(pr[e])
				br := b.Data[p*n : (p+1)*n]
				j := 0
				for ; j+4 <= n; j += 4 {
					d := dr[j : j+4 : j+4]
					sr := br[j : j+4 : j+4]
					d[0] += wv * sr[0]
					d[1] += wv * sr[1]
					d[2] += wv * sr[2]
					d[3] += wv * sr[3]
				}
				for ; j < n; j++ {
					dr[j] += wv * br[j]
				}
			}
			col += 4 * (e & 1)
		}
	}
	count24(hi-lo, n, w.Cols, gpr)
}

// count24 publishes the group/skipped-MAC telemetry for a kernel call
// covering rows output rows of n-wide dots against a k-column 2:4
// matrix.
func count24(rows, n, k, gpr int) {
	met24.groups.Add(int64(rows) * int64(n) * int64(gpr))
	if skipped := k - 2*gpr; skipped > 0 {
		met24.skippedMACs.Add(int64(rows) * int64(n) * int64(skipped))
	}
}

// mul24Parallel is mulParallel for a 2:4 left operand: dst = w*b over
// the full dst backing slice with the given worker bound.
func mul24Parallel(dst []float32, w *Sparse24, b *Matrix, m, k, n, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	if m*k*n < 65536 || workers == 1 {
		mul24Band(dst, w, b, 0, m, n)
		return
	}
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * band
		hi := lo + band
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mul24Band(dst, w, b, lo, hi, n)
		}(lo, hi)
	}
	wg.Wait()
}

// MulABt24Band computes rows [lo, hi) of dst = a * wᵀ serially, where w
// is a 2:4 compact weight matrix: the twin of MulABtBand for the
// fully-connected forward pass. Each dot walks w's stored entries in
// ascending column order, gathering the 2 live a-columns per group —
// half the MACs of the dense kernel. A dense dot's extra terms all have
// a zero weight factor, and since the accumulator starts at +0 and
// x + (±0) == x for every accumulator value this kernel can produce,
// the result is bit-identical to MulABtBand against the decoded dense
// matrix.
//
// Four batch rows are processed per pass: the stored entries are decoded
// once and feed four independent accumulator chains, which hides the FMA
// latency a single serial chain exposes (and quarters the entry-decode
// overhead). Each accumulator still sums its own row's terms in the same
// ascending-column order, so the parity argument is per-row unchanged.
// The blocked path multiplies unconditionally where the dense kernel
// skips zero activations: those terms are products with a zero factor,
// i.e. ±0, and an accumulator can never hold -0 (it starts at +0, +0
// plus any signed zero stays +0, and a + (-a) rounds to +0), so adding
// them never changes a bit.
func MulABt24Band(dst, a *Matrix, w *Sparse24, lo, hi int) {
	k, n := a.Cols, w.Rows
	gpr := w.GroupsPerRow
	ne := 2 * gpr
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0 := a.Data[(i+0)*k : (i+1)*k]
		ar1 := a.Data[(i+1)*k : (i+2)*k]
		ar2 := a.Data[(i+2)*k : (i+3)*k]
		ar3 := a.Data[(i+3)*k : (i+4)*k]
		dr0 := dst.Data[(i+0)*n : (i+1)*n]
		dr1 := dst.Data[(i+1)*n : (i+2)*n]
		dr2 := dst.Data[(i+2)*n : (i+3)*n]
		dr3 := dst.Data[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			wr := w.Val[j*ne : (j+1)*ne : (j+1)*ne]
			pr := w.Pos[j*ne : (j+1)*ne : (j+1)*ne]
			var acc0, acc1, acc2, acc3 float32
			col := 0
			for e := 0; e < len(wr); e += 2 {
				if wv := wr[e]; wv != 0 {
					c := col + int(pr[e])
					acc0 += ar0[c] * wv
					acc1 += ar1[c] * wv
					acc2 += ar2[c] * wv
					acc3 += ar3[c] * wv
				}
				if wv := wr[e+1]; wv != 0 {
					c := col + int(pr[e+1])
					acc0 += ar0[c] * wv
					acc1 += ar1[c] * wv
					acc2 += ar2[c] * wv
					acc3 += ar3[c] * wv
				}
				col += 4
			}
			dr0[j], dr1[j], dr2[j], dr3[j] = acc0, acc1, acc2, acc3
		}
	}
	for ; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			wr := w.Val[j*ne : (j+1)*ne : (j+1)*ne]
			pr := w.Pos[j*ne : (j+1)*ne : (j+1)*ne]
			var acc float32
			col := 0
			for e := 0; e < len(wr); e += 2 {
				if wv := wr[e]; wv != 0 {
					if av := ar[col+int(pr[e])]; av != 0 {
						acc += av * wv
					}
				}
				if wv := wr[e+1]; wv != 0 {
					if av := ar[col+int(pr[e+1])]; av != 0 {
						acc += av * wv
					}
				}
				col += 4
			}
			dr[j] = acc
		}
	}
	count24(hi-lo, n, k, gpr)
}

// MulABt24Into computes dst = a * wᵀ with a 2:4 right operand,
// parallelized across row bands of a exactly like MulABtInto.
func MulABt24Into(dst, a *Matrix, w *Sparse24) {
	if a.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MulABt24Into inner dims %d != %d", a.Cols, w.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Rows {
		panic("tensor: MulABt24Into dst shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, w.Rows
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if m*k*n < 65536 || workers <= 1 {
		MulABt24Band(dst, a, w, 0, m)
		return
	}
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * band
		hi := lo + band
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			MulABt24Band(dst, a, w, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Conv2D24Into is Conv2DInto with the (OutC) x (InC*KH*KW) weight matrix
// in 2:4 compact form. Unlike the dense path it lowers a whole image
// range into ONE batched patch matrix and runs ONE 2:4 GEMM over it
// (then copies the channel-major result back to NCHW): with the small
// output planes of the zoo models, per-image GEMM calls spend more time
// decoding stored entries and setting up 36-wide AXPY loops than doing
// MACs, and batching amortizes that decode across the whole batch.
// Output is bit-identical to Conv2DInto on the decoded dense weights:
// each output element accumulates the same terms in the same ascending
// entry order regardless of the GEMM width (see mul24Band).
func Conv2D24Into(out *Tensor4, in *Tensor4, weights *Sparse24, bias []float32, cs ConvShape, ws *ConvWorkspace) {
	checkConv(out, in, weights.Rows, weights.Cols, cs)
	workers := ws.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > in.N {
		workers = in.N
	}
	if workers <= 1 {
		// One worker: the whole batch is one GEMM; the caller's Workers
		// bound still applies inside it so replica-style callers stay
		// goroutine-free.
		conv24Images(out, in, weights, bias, cs, ws.scratchFor(0), ws.Workers, 0, in.N)
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
			conv24Images(out, in, weights, bias, cs, sc, 1, lo, hi)
		}(lo, hi, ws.scratchFor(w))
	}
	wg.Wait()
}

// conv24Images convolves images [lo, hi) with one private scratch, in
// image blocks sized to keep the patch matrix cache-resident: per block,
// one batched im2col, one 2:4 GEMM, then a fused bias-add/copy-out from
// the channel-major GEMM layout to NCHW. The block bound balances two
// costs — per-image GEMMs on tiny output planes redecode the stored
// entries per image, while one whole-batch patch matrix spills L2 and
// turns every AXPY into a memory stream.
func conv24Images(out, in *Tensor4, weights *Sparse24, bias []float32, cs ConvShape, sc *ConvScratch, gemmWorkers, lo, hi int) {
	k, ohw := cs.InC*cs.KH*cs.KW, cs.OutH()*cs.OutW()
	const patchBudget = 256 << 10 // bytes of patch block, well inside L2
	block := patchBudget / (4 * k * ohw)
	if block < 1 {
		block = 1
	}
	for b0 := lo; b0 < hi; b0 += block {
		b1 := b0 + block
		if b1 > hi {
			b1 = hi
		}
		width := (b1 - b0) * ohw
		im2col24Batch(&sc.patches, in, cs, b0, b1)
		sc.gemm.Reshape(cs.OutC, width)
		mul24Parallel(sc.gemm.Data, weights, &sc.patches, cs.OutC, k, width, gemmWorkers)
		for c := 0; c < cs.OutC; c++ {
			row := sc.gemm.Row(c)
			for i := b0; i < b1; i++ {
				plane := out.Image(i)[c*ohw : (c+1)*ohw]
				seg := row[(i-b0)*ohw : (i-b0+1)*ohw : (i-b0+1)*ohw]
				if bias == nil {
					copy(plane, seg)
					continue
				}
				// Same per-element op as addConvBias after a per-image GEMM.
				b := bias[c]
				for j := range seg {
					plane[j] = seg[j] + b
				}
			}
		}
	}
}

// im2col24Batch lowers images [lo, hi) into one k x (hi-lo)*ohw patch
// matrix: image i occupies the ohw-wide column block (i-lo)*ohw. Element
// placement within a block matches Im2colInto exactly; stride-1 kernel
// rows are copied as contiguous runs instead of element-by-element.
func im2col24Batch(dst *Matrix, in *Tensor4, cs ConvShape, lo, hi int) {
	oh, ow := cs.OutH(), cs.OutW()
	ohw := oh * ow
	dst.Reshape(cs.InC*cs.KH*cs.KW, (hi-lo)*ohw)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := lo; i < hi; i++ {
		img := in.Image(i)
		colOff := (i - lo) * ohw
		for c := 0; c < cs.InC; c++ {
			chanBase := c * cs.InH * cs.InW
			for kh := 0; kh < cs.KH; kh++ {
				for kw := 0; kw < cs.KW; kw++ {
					row := dst.Row((c*cs.KH+kh)*cs.KW + kw)[colOff : colOff+ohw]
					for oy := 0; oy < oh; oy++ {
						iy := oy*cs.Stride + kh - cs.Pad
						if iy < 0 || iy >= cs.InH {
							continue // leave zeros (padding)
						}
						srcRow := chanBase + iy*cs.InW
						dstRow := oy * ow
						if cs.Stride == 1 {
							off := kw - cs.Pad
							xlo, xhi := 0, ow
							if xlo < -off {
								xlo = -off
							}
							if xhi > cs.InW-off {
								xhi = cs.InW - off
							}
							if xlo < xhi {
								copy(row[dstRow+xlo:dstRow+xhi], img[srcRow+xlo+off:srcRow+xhi+off])
							}
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*cs.Stride + kw - cs.Pad
							if ix < 0 || ix >= cs.InW {
								continue
							}
							row[dstRow+ox] = img[srcRow+ix]
						}
					}
				}
			}
		}
	}
}
