package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestDotPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSoftmaxVector(t *testing.T) {
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum %g", sum)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64() * 5
		}
		shift := r.NormFloat64() * 100
		b := make([]float64, n)
		for i := range b {
			b[i] = a[i] + shift
		}
		sa := make([]float64, n)
		sb := make([]float64, n)
		Softmax(sa, a)
		Softmax(sb, b)
		for i := range sa {
			if math.Abs(sa[i]-sb[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float64{5, 5}) != 0 {
		t.Fatal("Argmax tie should pick first")
	}
}
