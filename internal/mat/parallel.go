package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the process-wide fork-join executor under every large
// pass: GOMAXPROCS-1 parked helper goroutines and a parallel-for, Fork,
// that the bodies themselves call — GemmLanes and GemmPanels over row
// blocks, the batched attention over heads, GELU over row spans. Fan-out
// therefore happens beneath
// kernel.Kernel.MulInto: whatever wraps a kernel sees one call per
// product, on the calling goroutine. docs/ARCHITECTURE.md, "Parallel
// execution", has the callers, the threshold's measurements and why
// decode steps stay inline.
//
// A region is n independent units; Fork only decides which goroutine
// runs which span of them. Every body computes a dst element entirely
// inside one unit, in the order the serial loop uses, so results are
// bit-identical whether a region fans out or runs inline.
//
// The helpers serve one region at a time. A caller that finds them busy
// (a second serving replica, another in-process node, a body that forks
// again from inside a region) runs its region inline: no queueing, no
// oversubscription, same bits.

// Ranger is the body of a parallel region.
type Ranger interface {
	// Range runs units [lo, hi) of the region. Spans of one region run
	// concurrently on several goroutines, each unit exactly once; lo < hi.
	Range(lo, hi int)
}

// ForkMinWork is the work estimate below which a region always runs
// inline. Work is counted in multiply-adds of the vector kernels, about
// 0.1 ns each on the host the benchmark runs on; other bodies weight
// their elements by measured cost (see WorkExp). Waking a parked helper
// and joining it costs 50-100 µs there and a row-split GemmLanes breaks
// even near 0.2 ms of serial work, so the threshold sits at 0.3 ms: a
// 192x768 product fans out from 32 rows up, while 1-8-row decode steps,
// chunk replays and 16-token admission prefills stay inline.
const ForkMinWork = 3 << 20

// WorkExp is the work of one math.Exp or math.Tanh call (about 10 ns).
const WorkExp = 128

// forkChunks is how many spans a region is cut into per participating
// goroutine. Spans are claimed one at a time, so a helper that wakes
// late, or shares its core, takes fewer of them instead of making the
// caller wait for a fixed half.
const forkChunks = 16

// executor is the state of the one region in flight.
type executor struct {
	mu      sync.Mutex // held by the caller whose region is fanned out
	helpers int        // helper goroutines started so far; guarded by mu
	wake    chan struct{}
	join    sync.WaitGroup

	// the region: written under mu before the wake sends, read by the
	// helpers after their receive
	body     Ranger
	n, chunk int
	next     atomic.Int64 // first unclaimed unit
}

var (
	forker         = executor{wake: make(chan struct{})}
	forkRegions    atomic.Int64
	forkInlineBusy atomic.Int64
)

// Fork runs body.Range over the n units [0, n), on the calling
// goroutine and — when work reaches ForkMinWork, GOMAXPROCS > 1 and the
// helpers are free — on up to GOMAXPROCS-1 helpers beside it. It returns
// when every unit has run. Allocation-free; body is retained only until
// Fork returns.
func Fork(n, work int, body Ranger) {
	if n < 2 || work < ForkMinWork {
		if n > 0 {
			body.Range(0, n)
		}
		return
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		body.Range(0, n)
		return
	}
	e := &forker
	if !e.mu.TryLock() {
		forkInlineBusy.Add(1)
		body.Range(0, n)
		return
	}
	helpers := min(procs, n) - 1
	for ; e.helpers < helpers; e.helpers++ {
		go e.help()
	}
	forkRegions.Add(1)
	e.body, e.n = body, n
	e.chunk = max(1, n/(forkChunks*(helpers+1)))
	e.next.Store(0)
	e.join.Add(helpers)
	for i := 0; i < helpers; i++ {
		e.wake <- struct{}{}
	}
	e.drain()
	e.join.Wait()
	e.body = nil
	e.mu.Unlock()
}

// drain claims and runs spans of the region in flight until none is
// left.
func (e *executor) drain() {
	for {
		hi := int(e.next.Add(int64(e.chunk)))
		lo := hi - e.chunk
		if lo >= e.n {
			return
		}
		e.body.Range(lo, min(hi, e.n))
	}
}

// help is a helper's life: parked on wake, one drain per token. Helpers
// are never stopped; an idle one is a goroutine blocked on a channel.
func (e *executor) help() {
	for range e.wake {
		e.drain()
		e.join.Done()
	}
}

// forkJob runs one call's arguments as a region. Fork's body is shared
// with the helpers, so it lives on the heap: a copy of job borrowed from
// jobs, not an allocation (or a closure) per call.
func forkJob[J any, P interface {
	*J
	Ranger
}](jobs *FreeList[P], n, work int, job J) {
	j := jobs.Get(func() P { return new(J) })
	*j = job
	Fork(n, work, j)
	*j = *new(J)
	jobs.Put(j)
}

// ForkStats returns how many regions fanned out to the helpers and how
// many ran inline because the helpers were serving another caller.
func ForkStats() (regions, inlineBusy int64) {
	return forkRegions.Load(), forkInlineBusy.Load()
}
