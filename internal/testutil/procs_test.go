package testutil

import "testing"

var sink []byte

// TestAllocsPerRun: the minimum over windows does not weaken the
// contract — one allocation per call reads as one — while a burst of
// mallocs on another goroutine that lands in one window (what a parking
// mat.Fork helper or a neighbouring package's test does to a process-
// wide count) no longer reads as an allocation of f.
func TestAllocsPerRun(t *testing.T) {
	if got := AllocsPerRun(50, func() { sink = make([]byte, 64) }); got != 1 {
		t.Fatalf("one allocation per call read as %v", got)
	}
	calls := 0
	got := AllocsPerRun(50, func() {
		if calls++; calls != 2 { // 1 is the warm-up, 2 the first measured call
			return
		}
		done := make(chan struct{})
		go func() {
			for i := 0; i < 200; i++ {
				sink = make([]byte, 64)
			}
			close(done)
		}()
		<-done
	})
	if got != 0 {
		t.Fatalf("200 stray mallocs in one window of 50 calls read as %v allocs per call", got)
	}
}
