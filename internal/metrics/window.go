package metrics

// Window is a fixed-capacity sliding sample window: Push overwrites the
// oldest sample once capacity is reached, and the digest methods
// (Quantile, Sum) summarize whatever is currently held. It backs
// the serving path's live telemetry — the recorder keeps one window per
// signal and the closed-loop controller reads digests of them every
// control tick. Not safe for concurrent use; callers hold their own
// lock (serve.Recorder guards its windows with the recorder mutex).
type Window struct {
	buf []float64
	cap int
	pos int // next overwrite position once full
}

// NewWindow returns an empty window holding at most capacity samples.
// Its storage grows with the samples pushed, up to capacity.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		panic("metrics: Window capacity must be positive")
	}
	return &Window{cap: capacity}
}

// Push adds one sample, evicting the oldest when the window is full.
func (w *Window) Push(v float64) {
	if len(w.buf) < w.cap {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.pos] = v
	w.pos = (w.pos + 1) % w.cap
}

// Len returns the number of samples currently held.
func (w *Window) Len() int { return len(w.buf) }

// Quantile returns the q-quantile of the held samples (0 when empty),
// with the same estimator as the package-level Quantile.
func (w *Window) Quantile(q float64) float64 {
	return Quantile(w.buf, q)
}

// AppendTo appends the held samples to dst, in no particular order.
func (w *Window) AppendTo(dst []float64) []float64 {
	return append(dst, w.buf...)
}

// Sum returns the sum of the held samples.
func (w *Window) Sum() float64 {
	var s float64
	for _, v := range w.buf {
		s += v
	}
	return s
}
