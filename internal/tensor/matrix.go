// Package tensor implements the minimal dense linear-algebra substrate
// needed to run real DNN inference and training in pure Go: float32
// matrices and 4-D tensors, blocked parallel matrix multiplication,
// im2col-based convolution, pooling, and the activation functions used by
// the model zoo.
//
// The package exists because MaxNVM's fault-tolerance studies require
// *measured* classification error under injected memory faults, which in
// turn requires an executable DNN — not just a size model.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix without copying. The slice
// length must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d x %d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (no copy).
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Reshape resizes the matrix to rows x cols, reusing the backing array
// whenever it has the capacity (the contents are unspecified afterwards).
// Scratch buffers reshaped per layer shape this way reach a steady state
// with zero allocations.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	m.Rows, m.Cols = rows, cols
	if need := rows * cols; cap(m.Data) < need {
		m.Data = make([]float32, need)
	} else {
		m.Data = m.Data[:need]
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// MulInto computes dst = a * b. Shapes must agree: a is (M x K), b is
// (K x N), dst is (M x N). dst must not alias a or b; its prior contents
// are ignored (each row band clears its own rows, so no serial memset
// precedes the parallel section). The multiplication is cache-blocked
// and parallelized across row bands.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulInto inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MulInto dst shape mismatch")
	}
	mulParallel(dst.Data, a, b, a.Rows, a.Cols, b.Cols, 0)
}

// mulParallel runs dst = a*b over the full dst backing slice with the
// given worker bound (0 = GOMAXPROCS). It is the shared engine behind
// MulInto and the single-image convolution path, which multiplies
// straight into an output-tensor image slice instead of a Matrix.
func mulParallel(dst []float32, a, b *Matrix, m, k, n, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	// Serial path for small problems: goroutine overhead dominates below
	// ~64k multiply-accumulates.
	if m*k*n < 65536 || workers == 1 {
		mulBand(dst, a, b, 0, m, k, n)
		return
	}
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
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
			mulBand(dst, a, b, lo, hi, k, n)
		}(lo, hi)
	}
	wg.Wait()
}

// mulBand computes rows [lo, hi) of dst = a*b using an ikj loop order so
// the inner loop streams through contiguous rows of b and dst. Each band
// clears its own rows before accumulating, so large GEMMs never pay a
// single-threaded zero fill ahead of the parallel section. The inner
// loop is 4-way unrolled; each dst element still accumulates its terms
// one at a time in ascending-p order, so results are bit-identical to
// the scalar kernel (and to the pre-unroll one).
func mulBand(dst []float32, a, b *Matrix, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue // pruned weights are common; skip zero rows cheaply
			}
			br := b.Data[p*n : (p+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				d := dr[j : j+4 : j+4]
				s := br[j : j+4 : j+4]
				d[0] += av * s[0]
				d[1] += av * s[1]
				d[2] += av * s[2]
				d[3] += av * s[3]
			}
			for ; j < n; j++ {
				dr[j] += av * br[j]
			}
		}
	}
}

// MulABtInto computes dst = a * bᵀ without materializing the transpose:
// a is (M x K), b is (N x K), dst is (M x N). Both operands are walked
// row-major (dst[i][j] is the dot product of row i of a and row j of b),
// so the fully-connected forward pass needs neither a transposed weight
// copy nor a zero fill. Accumulation order matches mulBand term for
// term, and the zero terms mulBand skips cannot change a bit (see
// MulABtBand), so for finite b dst is bit-identical to MulInto(dst, a,
// Transpose(b)). Parallelized across row bands of a.
func MulABtInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulABtInto inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MulABtInto dst shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if m*k*n < 65536 || workers <= 1 {
		MulABtBand(dst, a, b, 0, m)
		return
	}
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
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
			MulABtBand(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulABtBand computes rows [lo, hi) of dst = a * bᵀ serially. It is the
// building block of MulABtInto, exported so callers that parallelize at
// a higher level (one inference replica per worker) can run the kernel
// with zero goroutine spawns and zero allocations.
//
// Four rows of a are taken per pass: each row of b is loaded once and
// feeds four independent accumulator chains. There is no zero-element
// skip — on post-ReLU activations that branch mispredicts constantly.
// Each dot still sums its own products in ascending-p order, and the
// products a skip would drop are ±0, which an accumulator seeded at +0
// absorbs without changing a bit (it never holds -0: +0 plus any signed
// zero is +0, and a + (-a) rounds to +0). That needs b finite (0 * Inf
// is NaN); every weight operand the forward pass runs is.
func MulABtBand(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Rows
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0 := a.Data[(i+0)*k : (i+1)*k : (i+1)*k]
		ar1 := a.Data[(i+1)*k : (i+2)*k : (i+2)*k]
		ar2 := a.Data[(i+2)*k : (i+3)*k : (i+3)*k]
		ar3 := a.Data[(i+3)*k : (i+4)*k : (i+4)*k]
		dr0 := dst.Data[(i+0)*n : (i+1)*n]
		dr1 := dst.Data[(i+1)*n : (i+2)*n]
		dr2 := dst.Data[(i+2)*n : (i+3)*n]
		dr3 := dst.Data[(i+3)*n : (i+4)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k : (j+1)*k]
			x0, x1, x2, x3 := ar0[:len(br)], ar1[:len(br)], ar2[:len(br)], ar3[:len(br)]
			var acc0, acc1, acc2, acc3 float32
			for p, bv := range br {
				acc0 += x0[p] * bv
				acc1 += x1[p] * bv
				acc2 += x2[p] * bv
				acc3 += x3[p] * bv
			}
			dr0[j], dr1[j], dr2[j], dr3[j] = acc0, acc1, acc2, acc3
		}
	}
	for ; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k : (j+1)*k]
			x := ar[:len(br)]
			var acc float32
			for p, bv := range br {
				acc += x[p] * bv
			}
			dr[j] = acc
		}
	}
}

// Mul returns a * b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	dst := NewMatrix(a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// AddBiasRows adds bias[j] to every element of column j.
func (m *Matrix) AddBiasRows(bias []float32) {
	if len(bias) != m.Cols {
		panic("tensor: bias length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*out.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// ReLU applies max(0, x) elementwise in place.
func (m *Matrix) ReLU() {
	reluInPlace(m.Data)
}

// reluInPlace zeroes sign-bit-set entries branch-free: the sign bit
// selects an all-zero or identity mask, so throughput does not depend on
// the sign mix. The branchy form (`if v < 0`) mispredicts on roughly
// half the elements of a fresh activation tensor, which costs ~7x on
// this loop. Entries with the sign bit set — including -0 and negative
// NaNs, which conv/FC outputs cannot produce (an IEEE accumulation
// seeded at +0 never yields -0, and the zoo models are NaN-free) — map
// to +0.
func reluInPlace(data []float32) {
	for i, v := range data {
		b := math.Float32bits(v)
		data[i] = math.Float32frombits(b & ((b >> 31) - 1))
	}
}

// Softmax converts each row into a probability distribution in place,
// using the max-subtraction trick for numerical stability.
func (m *Matrix) Softmax() {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[j] = e
			sum += e
		}
		if sum > 0 {
			inv := 1 / sum
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// ArgmaxRow returns the index of the maximum element of row r.
func (m *Matrix) ArgmaxRow(r int) int {
	row := m.Row(r)
	best, bv := 0, row[0]
	for j, v := range row[1:] {
		if v > bv {
			best, bv = j+1, v
		}
	}
	return best
}

// Frobenius returns the Frobenius norm of the matrix.
func (m *Matrix) Frobenius() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
