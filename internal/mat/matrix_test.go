package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rows, cols int, seed int64) *Matrix {
	m := New(rows, cols)
	m.Randomize(rand.New(rand.NewSource(seed)), 1)
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New not zeroed")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := randomMatrix(3, 3, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
}

// A reused buffer is sized exactly the first time and whenever its width
// changes, outgrows its storage with half as many rows to spare, and
// otherwise re-slices: a slowly rising row count reallocates once.
func TestEnsureShapeGrowth(t *testing.T) {
	var buf *Matrix
	m := EnsureShape(&buf, true, 100, 6)
	if m != buf || m.Rows != 100 || len(m.Data) != 600 || cap(m.Data) != 600 {
		t.Fatalf("first use: %dx%d len %d cap %d", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	m = EnsureShape(&buf, true, 104, 6)
	if m != buf || m.Rows != 104 || len(m.Data) != 624 || cap(m.Data) != 156*6 {
		t.Fatalf("outgrown: %dx%d len %d cap %d", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	for _, v := range m.Data[:cap(m.Data)] {
		if v != 0 {
			t.Fatal("fresh storage not zeroed")
		}
	}
	for _, rows := range []int{110, 3, 156} {
		if got := EnsureShape(&buf, true, rows, 6); got != m || got.Rows != rows || len(got.Data) != rows*6 {
			t.Fatalf("%d rows: reallocated or mis-sliced (%dx%d len %d)", rows, got.Rows, got.Cols, len(got.Data))
		}
	}
	if m = EnsureShape(&buf, true, 8, 4); cap(m.Data) != 32 {
		t.Fatalf("new width: cap %d, want an exact fit", cap(m.Data))
	}
	if fresh := EnsureShape(&buf, false, 8, 4); fresh == buf {
		t.Fatal("reuse off returned the buffer")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("MatMul got %v want %v", dst.Data, want)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	a := randomMatrix(4, 5, 2)
	b := randomMatrix(3, 5, 3)
	got := New(4, 3)
	MatMulT(got, a, b)
	want := New(4, 3)
	MatMul(want, a, b.Transpose())
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulT != a @ b^T")
	}
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	a := randomMatrix(5, 4, 4)
	b := randomMatrix(5, 3, 5)
	got := New(4, 3)
	MatMulTA(got, a, b)
	want := New(4, 3)
	MatMul(want, a.Transpose(), b)
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulTA != a^T @ b")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := New(rows, cols)
		m.Randomize(r, 1)
		return Equal(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociatesWithTranspose(t *testing.T) {
	// property: (A @ B)^T == B^T @ A^T
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := New(m, k)
		a.Randomize(r, 1)
		b := New(k, n)
		b.Randomize(r, 1)
		ab := New(m, n)
		MatMul(ab, a, b)
		btat := New(n, m)
		MatMul(btat, b.Transpose(), a.Transpose())
		return Equal(ab.Transpose(), btat, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(5), 1+r.Intn(7)
		m := New(rows, cols)
		m.Randomize(r, 10)
		m.SoftmaxRows()
		for i := 0; i < rows; i++ {
			var sum float64
			for _, v := range m.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsStableForLargeValues(t *testing.T) {
	m := FromSlice(1, 3, []float64{1e300, 1e300, 1e300})
	m.SoftmaxRows()
	for _, v := range m.Data {
		if math.IsNaN(v) || math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("unstable softmax: %v", m.Data)
		}
	}
}

func TestAddSubScaleHadamard(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	a.Add(b)
	if a.Data[0] != 5 || a.Data[2] != 9 {
		t.Fatalf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.Data[0] != 1 || a.Data[2] != 3 {
		t.Fatalf("Sub: %v", a.Data)
	}
	a.Scale(2)
	if a.Data[1] != 4 {
		t.Fatalf("Scale: %v", a.Data)
	}
	a.Hadamard(b)
	if a.Data[0] != 8 || a.Data[2] != 36 {
		t.Fatalf("Hadamard: %v", a.Data)
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 1})
	b := FromSlice(1, 2, []float64{2, 4})
	a.AddScaled(b, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 3 {
		t.Fatalf("AddScaled: %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	m.AddRowVector([]float64{1, 2, 3})
	if m.At(0, 0) != 1 || m.At(1, 2) != 3 {
		t.Fatalf("AddRowVector: %v", m.Data)
	}
}

func TestNormAndSparsity(t *testing.T) {
	m := FromSlice(1, 4, []float64{3, 0, 4, 0})
	if math.Abs(m.Norm()-5) > 1e-12 {
		t.Fatalf("Norm = %g", m.Norm())
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if math.Abs(m.Sparsity()-0.5) > 1e-12 {
		t.Fatalf("Sparsity = %g", m.Sparsity())
	}
}

func TestColRowL2(t *testing.T) {
	m := FromSlice(3, 2, []float64{
		3, 1,
		4, 2,
		0, 2,
	})
	if math.Abs(m.ColL2(0, 0, 2)-5) > 1e-12 {
		t.Fatalf("ColL2 = %g", m.ColL2(0, 0, 2))
	}
	if math.Abs(m.RowL2(1, 0, 2)-math.Sqrt(20)) > 1e-12 {
		t.Fatalf("RowL2 = %g", m.RowL2(1, 0, 2))
	}
}

func TestArgmaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 5, 2, 7, 0, 7})
	if m.ArgmaxRow(0) != 1 {
		t.Fatalf("ArgmaxRow(0) = %d", m.ArgmaxRow(0))
	}
	if m.ArgmaxRow(1) != 0 { // first on ties
		t.Fatalf("ArgmaxRow(1) = %d", m.ArgmaxRow(1))
	}
}

func TestMaxAbsAndAbsSum(t *testing.T) {
	m := FromSlice(1, 3, []float64{-5, 2, 3})
	if m.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %g", m.MaxAbs())
	}
	if m.AbsSum() != 10 {
		t.Fatalf("AbsSum = %g", m.AbsSum())
	}
}

func TestRandomizeXavierBounds(t *testing.T) {
	m := New(10, 10)
	m.RandomizeXavier(rand.New(rand.NewSource(7)), 10, 10)
	limit := math.Sqrt(6.0 / 20)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %g outside Xavier limit %g", v, limit)
		}
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Fatal("Equal ignored shape mismatch")
	}
}

func TestCopyFromPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 3))
}
