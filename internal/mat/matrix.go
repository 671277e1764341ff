// Package mat provides the dense linear-algebra substrate used by the
// RT3 reproduction: a row-major float64 matrix with the kernels a small
// Transformer training stack needs (matmul, transpose, row softmax,
// element-wise ops, norms and masked variants).
//
// The package is deliberately minimal and allocation-conscious: hot
// kernels (MatMul, AddBias) operate on pre-allocated destinations, and
// every operation is deterministic so experiments are reproducible.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix without copying.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowSpan returns rows [r0, r1) as a view sharing the matrix storage —
// the packed-batch primitive: a per-sequence slice of a fused
// multi-sequence matrix behaves exactly like a standalone matrix, so
// per-sequence operations (attention blocks, pooling) on a view are
// bit-identical to running them on a separately allocated copy.
func (m *Matrix) RowSpan(r0, r1 int) *Matrix {
	if r0 < 0 || r1 < r0 || r1 > m.Rows {
		panic(fmt.Sprintf("mat: RowSpan [%d, %d) of %d rows", r0, r1, m.Rows))
	}
	return &Matrix{Rows: r1 - r0, Cols: m.Cols, Data: m.Data[r0*m.Cols : r1*m.Cols]}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m; the shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with uniform values in [-scale, +scale).
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// RandomizeXavier fills m with the Glorot/Xavier uniform initialization
// for a layer with fanIn inputs and fanOut outputs.
func (m *Matrix) RandomizeXavier(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

// String renders the matrix for debugging (values with 4 decimals).
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%8.4f ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// EnsureShape returns a rows x cols matrix for reusable-buffer forward
// paths: with reuse on, *buf is returned in place, reallocated only
// when the width changes or the backing array is too small — a row
// count that shrinks and grows again (a dynamic batch's packed row
// count varying per flush, or prefill and decode steps alternating on
// one replica) re-slices the same storage instead of reallocating.
// A buffer that outgrows its storage takes 1.5x the rows asked for: a
// model's buffers all outgrow at once, and an exact fit left the whole
// activation set (40-55 MB) as garbage at every new largest batch.
// Off, it always allocates fresh. Reused buffers are not zeroed —
// callers must overwrite every element — and the returned header is
// resized in place, so earlier views into it follow the usual
// reuse-mode aliasing contract (valid until the next call).
func EnsureShape(buf **Matrix, reuse bool, rows, cols int) *Matrix {
	if !reuse {
		return New(rows, cols)
	}
	b := *buf
	if b == nil || b.Cols != cols {
		b = New(rows, cols)
	} else if cap(b.Data) < rows*cols {
		b = New(rows+rows/2, cols)
	}
	*buf = b
	b.Rows = rows
	b.Data = b.Data[:rows*cols]
	return b
}

// GrowFloats resizes a scratch float slice to n, reallocating only on
// growth; contents are unspecified.
func GrowFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// MatMul computes dst = a @ b. dst must be pre-allocated with shape
// a.Rows x b.Cols and must not alias a or b. Each dst element
// accumulates s = fma(a[i][k], b[k][j], s) in ascending k: the rounding
// definition of every served product (see lanes.go, "Bit identity"), so
// the dense reference and the kernels agree bit for bit. A zero of a
// contributes no term.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMul dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		di := dst.Data[i*n : (i+1)*n]
		for k := range di {
			di[k] = 0
		}
		ai := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j, bv := range bk {
				di[j] = math.FMA(av, bv, di[j])
			}
		}
	}
}

// matMulTile is the row-tile edge of the blocked transposed matmuls.
// On long packed batches (ΣL rows across a fused multi-sequence batch)
// the untiled loops re-stream one operand from memory for every row of
// the other; tiling bounds the active working set so a tile is reused
// from cache across the opposite tile. 32 rows x 64 cols x 8 B = 16 KiB
// per operand tile, comfortably inside L1/L2 for the widths this repo
// runs.
const matMulTile = 32

// MatMulT computes dst = a @ b^T, with dst pre-allocated a.Rows x b.Rows.
//
// The loops are tiled over the rows of a and b (the attention backward
// runs this over per-sequence blocks of long packed batches; the forward
// scores go through Attend): each b tile is reused from cache across a
// whole a tile instead of being re-streamed for every row of a. Each dst
// element is still one full contraction in ascending k order, so results
// are bit-identical to the untiled triple loop. Its products stay
// separately rounded (the conversion forbids fusing them on any port).
func MatMulT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMulT dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	for i0 := 0; i0 < a.Rows; i0 += matMulTile {
		i1 := i0 + matMulTile
		if i1 > a.Rows {
			i1 = a.Rows
		}
		for j0 := 0; j0 < b.Rows; j0 += matMulTile {
			j1 := j0 + matMulTile
			if j1 > b.Rows {
				j1 = b.Rows
			}
			for i := i0; i < i1; i++ {
				ai := a.Data[i*a.Cols : (i+1)*a.Cols]
				di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
				for j := j0; j < j1; j++ {
					bj := b.Data[j*b.Cols : (j+1)*b.Cols]
					var s float64
					for k, av := range ai {
						s += float64(av * bj[k])
					}
					di[j] = s
				}
			}
		}
	}
}

// MatMulTA computes dst = a^T @ b, with dst pre-allocated a.Cols x b.Cols.
//
// The contraction loop (over the shared rows of a and b — the ΣL packed
// batch length on the attention gradient path) is tiled: within one row
// tile the full dst is swept once, so dst rows and the b tile stay
// cached instead of the whole dst being re-streamed for every batch
// row. Tiles are processed in ascending row order and each dst element
// accumulates its terms in ascending r order, so results are
// bit-identical to the untiled loop; its products stay separately
// rounded, like MatMulT's.
func MatMulTA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MatMulTA inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulTA dst %dx%d want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	n := b.Cols
	for r0 := 0; r0 < a.Rows; r0 += matMulTile {
		r1 := r0 + matMulTile
		if r1 > a.Rows {
			r1 = a.Rows
		}
		for i := 0; i < a.Cols; i++ {
			di := dst.Data[i*n : (i+1)*n]
			for r := r0; r < r1; r++ {
				av := a.Data[r*a.Cols+i]
				if av == 0 {
					continue
				}
				br := b.Data[r*n : (r+1)*n]
				for j, bv := range br {
					di[j] += float64(av * bv)
				}
			}
		}
	}
}

// Add computes m += other element-wise.
func (m *Matrix) Add(other *Matrix) {
	checkSameShape("Add", m, other)
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Hadamard computes m *= other element-wise.
func (m *Matrix) Hadamard(other *Matrix) {
	checkSameShape("Hadamard", m, other)
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// AddScaled computes m += s*other element-wise.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	checkSameShape("AddScaled", m, other)
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// AddRowVector adds vector v (length Cols) to every row of m: the bias
// pass after every product. Batches from WorkBias's threshold up split
// by row span across the Fork helpers.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector len %d != cols %d", len(v), m.Cols))
	}
	forkJob(&biasJobs, m.Rows, len(m.Data)*WorkBias, biasJob{m, v})
}

// biasJob is one AddRowVector call as a Fork body, by row.
type biasJob struct {
	m *Matrix
	v []float64
}

var biasJobs FreeList[*biasJob]

func (j *biasJob) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := j.m.Row(i)
		for k, x := range j.v {
			row[k] += x
		}
	}
}

// SoftmaxRows applies Softmax to every row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		Softmax(m.Row(i), m.Row(i))
	}
}

// NNZ returns the number of non-zero elements.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero elements in [0, 1].
func (m *Matrix) Sparsity() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/float64(len(m.Data))
}

// ColL2 returns the l2 norm of column j restricted to rows [r0, r1).
func (m *Matrix) ColL2(j, r0, r1 int) float64 {
	var s float64
	for i := r0; i < r1; i++ {
		v := m.Data[i*m.Cols+j]
		s += v * v
	}
	return math.Sqrt(s)
}

// RowL2 returns the l2 norm of row i restricted to columns [c0, c1).
func (m *Matrix) RowL2(i, c0, c1 int) float64 {
	var s float64
	row := m.Row(i)
	for j := c0; j < c1; j++ {
		s += row[j] * row[j]
	}
	return math.Sqrt(s)
}

// ArgmaxRow returns the index of the maximum element of row i.
func (m *Matrix) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bv := 0, row[0]
	for j, v := range row[1:] {
		if v > bv {
			bv = v
			best = j + 1
		}
	}
	return best
}

// Equal reports whether the two matrices have the same shape and their
// elements differ by at most tol. A NaN equals only a NaN; an infinity
// equals only the same infinity.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		u := b.Data[i]
		if math.IsNaN(v) || math.IsNaN(u) {
			if !math.IsNaN(v) || !math.IsNaN(u) {
				return false
			}
		} else if math.Abs(v-u) > tol {
			return false
		}
	}
	return true
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
