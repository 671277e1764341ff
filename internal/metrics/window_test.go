package metrics

import "testing"

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 {
		t.Fatalf("empty window: Len=%d", w.Len())
	}
	if q := w.Quantile(0.99); q != 0 {
		t.Fatalf("empty Quantile = %g, want 0", q)
	}
	if s := w.Sum(); s != 0 {
		t.Fatalf("empty Sum = %g, want 0", s)
	}
}

func TestWindowSingleSample(t *testing.T) {
	w := NewWindow(8)
	w.Push(3.5)
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := w.Quantile(q); got != 3.5 {
			t.Fatalf("Quantile(%g) = %g, want 3.5", q, got)
		}
	}
	if w.Sum() != 3.5 {
		t.Fatalf("Sum = %g, want 3.5", w.Sum())
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		w.Push(v)
	}
	// window now holds {4, 5, 3} in ring order; digests see {3, 4, 5}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if s := w.Sum(); s != 12 {
		t.Fatalf("Sum = %g, want 12 (oldest evicted)", s)
	}
	if q := w.Quantile(0.5); q != 4 {
		t.Fatalf("median = %g, want 4", q)
	}
	if lo, hi := w.Quantile(0), w.Quantile(1); lo != 3 || hi != 5 {
		t.Fatalf("min/max = %g/%g, want 3/5", lo, hi)
	}
}

func TestWindowMatchesQuantileEstimator(t *testing.T) {
	w := NewWindow(16)
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	for _, v := range vals {
		w.Push(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
		if got, want := w.Quantile(q), Quantile(vals, q); got != want {
			t.Fatalf("Quantile(%g) = %g, want %g (package estimator)", q, got, want)
		}
	}
}
