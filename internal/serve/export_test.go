package serve

// SetAutotuneEpsilon sets the exploration rate a's next Step starts
// from. Tests about drains rather than learning want a switch-happy
// controller; ReplayTrace starts from the rate a trace's first decision
// records, so such traces still replay.
func SetAutotuneEpsilon(a *Autotuner, eps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.eps = eps
}

// SetAutotuneTraceCap bounds a's retained decisions to n, so a test can
// overflow the trace in a few ticks.
func SetAutotuneTraceCap(a *Autotuner, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.traceCap = n
}
