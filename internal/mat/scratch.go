package mat

import "sync"

// FreeList is a small concurrency-safe free list of reusable values:
// scratch buffers and Fork bodies that hot paths borrow per call (or per
// span of a fanned-out region) and return on exit, so steady-state
// compute stays allocation-free even when serving replicas and the Fork
// helpers run the same kernel at once. The zero value is ready to use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get pops a previously Put value, or returns fresh() when none is
// free. Borrowed values carry whatever state the previous user left;
// callers must fully (re)initialize them.
func (f *FreeList[T]) Get(fresh func() T) T {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		v := f.free[n-1]
		var zero T
		f.free[n-1] = zero
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	return fresh()
}

// Put returns a value to the free list for reuse.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	f.free = append(f.free, v)
	f.mu.Unlock()
}
