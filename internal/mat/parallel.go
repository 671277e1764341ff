package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the process-wide fork-join executor under every pass
// worth splitting: GOMAXPROCS-1 helper goroutines and a parallel-for,
// Fork, that the bodies themselves call — GemmLanes over row blocks or,
// for the single lane block of a decode step, over column partitions,
// GemmPanels over row blocks, attention over heads (batched) or
// sequences (cached), GELU and the residual + layer norm over row spans.
// Fan-out therefore happens beneath kernel.Kernel.MulInto: whatever
// wraps a kernel sees one call per product, on the calling goroutine.
// docs/ARCHITECTURE.md, "Parallel execution", has the callers and the
// measurements behind the constants.
//
// A region is n independent units; Fork only decides which goroutine
// runs which span of them. Every body computes a dst element entirely
// inside one unit, in the order the serial loop uses, so results are
// bit-identical whether a region fans out or runs inline.
//
// # Dispatch
//
// A decode step issues a region every few microseconds, so handing a
// region over must not cost a goroutine wake-up (50-100 µs here). The
// caller publishes a region by making gen odd, drains spans itself,
// closes it by making gen even and waits only for helpers that entered.
// A helper polls gen; to enter it increments active and then re-reads
// gen: if the region it saw is still open it may run spans, and the
// caller — which closes before it reads active — cannot miss it; if gen
// moved, the helper backs out without touching the region, so a helper
// that arrives late can never run the body of a region Fork already
// returned from. A helper that has seen no region for forkSpin parks on
// a channel, and a caller that finds helpers parked wakes them without
// waiting for them: they join this region if it is still open when they
// arrive, else they are spinning when the next one comes.
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
// their elements by measured cost (see WorkExp). Publishing a region to
// a polling helper and joining it costs 1-2 µs, so the threshold sits at
// 6 µs of work: the smallest product of the reference deployment's
// decode step (one 8-lane tile of 192x192 at sparsity 0.7, 9 µs) is just
// above it.
const ForkMinWork = 1 << 16

// WorkExp is the work of one element that goes through Exp: 3 to 4 ns
// for a GELU activation or a softmax entry with its share of the max,
// sum and scale passes (BenchmarkTail in internal/nn).
const WorkExp = 32

// WorkNorm is the work of one element of a residual + layer-norm row
// (mat.NormRow, 0.7 to 0.8 ns).
const WorkNorm = 8

// WorkBias is the work of one element of a bias add (AddRowVector): 0.4
// ns inline, but half the rows sit in the other core's cache either
// way, and the split first pays (1.2-1.4x) at about 20 µs of it.
const WorkBias = 2

// forkChunks is how many spans a region is cut into per participating
// goroutine. Spans are claimed one at a time, so a helper that arrives
// late, or shares its core, takes fewer of them instead of making the
// caller wait for a fixed half.
const forkChunks = 16

// forkSpin is how long a helper polls for the next region after its
// last one before it parks: longer than the serial stretches inside a
// decode step and between two steps, so a busy server never pays a
// wake-up, and short enough that a burst costs at most this much CPU
// per helper beyond its own work (an idle helper costs none).
const forkSpin = 300 * time.Microsecond

// forkYield is how long a spinning helper keeps its P before it yields
// it, so clients and other replicas still get to run beside a busy
// executor.
const forkYield = 4 * time.Microsecond

// forkYieldEvery is how many fanned-out regions a caller runs between
// two yields of its own P. A goroutine the caller has made runnable (the
// client of a reply it just sent) sits on the caller's P; an idle P would
// steal it at once, but a P that runs a spinning helper never goes idle,
// and the helper's own yield looks at its own queue only. So the caller
// lets it run, at most a decode step late.
const forkYieldEvery = 32

// forkJoinSpin is how long the caller spins for the helpers' last spans
// (a decode step's are 3-20 µs) before it blocks.
const forkJoinSpin = 20 * time.Microsecond

// forkPolls is how many polls (one PAUSE each where the CPU has it, 1 to
// 70 ns) a spinning goroutine makes between two looks at the clock.
const forkPolls = 16

// executor is the state of the one region in flight.
type executor struct {
	mu      sync.Mutex // held by the caller whose region is in flight
	helpers int        // helper goroutines started so far; guarded by mu

	// the region: written under mu before gen opens it, read by helpers
	// that entered it
	body     Ranger
	n, chunk int

	gen    atomic.Uint64 // odd while a region is open; +2 per region
	active atomic.Int32  // helpers between entering a region and leaving it
	helped atomic.Bool   // a helper ran a span of the region in flight
	next   atomic.Int64  // first unclaimed unit

	parked atomic.Int32  // helpers blocked on lot
	lot    chan struct{} // the parking lot: one token wakes one helper

	joining atomic.Bool   // the caller blocks on left until active is 0
	left    chan struct{} // capacity 1: a stale token costs one re-check
}

var (
	forker = executor{lot: make(chan struct{}), left: make(chan struct{}, 1)}
	// regions fanned out, regions run inline because the helpers were
	// taken, regions a helper ran a span of, helpers woken from the lot
	forkRegions, forkInlineBusy, forkHelped, forkWakes atomic.Int64
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
	e.gen.Add(1) // open
	for i := min(int(e.parked.Load()), helpers); i > 0; i-- {
		select {
		case e.lot <- struct{}{}:
			forkWakes.Add(1)
		default: // not blocked yet, or woken already: it will see gen
		}
	}
	e.drain()
	e.gen.Add(1) // closed: no helper enters from here on
	e.join()
	if e.helped.Swap(false) {
		forkHelped.Add(1)
	}
	e.body = nil
	yield := e.gen.Load()%(2*forkYieldEvery) == 0
	e.mu.Unlock()
	if yield {
		runtime.Gosched()
	}
}

// drain claims and runs spans of the region in flight until none is
// left, and reports whether it ran any.
func (e *executor) drain() (ran bool) {
	for {
		hi := int(e.next.Add(int64(e.chunk)))
		lo := hi - e.chunk
		if lo >= e.n {
			return ran
		}
		e.body.Range(lo, min(hi, e.n))
		ran = true
	}
}

// join returns once no helper is inside the region just closed. Every
// span is claimed by then, so a helper still inside is finishing its
// last one: the caller spins for it, and blocks only when that takes
// long (the span is a large one, or the helper lost its core inside it).
func (e *executor) join() {
	if e.active.Load() == 0 {
		return
	}
	for since := time.Now(); time.Since(since) < forkJoinSpin; {
		for i := 0; i < forkPolls; i++ {
			spinPause()
			if e.active.Load() == 0 {
				return
			}
		}
	}
	e.joining.Store(true)
	for e.active.Load() != 0 {
		<-e.left
	}
	e.joining.Store(false)
}

// help is a helper's life: poll for a region, run spans of it, poll
// again, park after forkSpin without one. Helpers are never stopped; an
// idle one is a goroutine blocked on a channel.
func (e *executor) help() {
	var seen uint64 // the last region entered
	idle := time.Now()
	yielded := idle
	for polls := 1; ; polls++ {
		if g := e.gen.Load(); g&1 == 1 && g != seen {
			seen = g
			e.active.Add(1)
			// still open: the caller has not closed, so it will see active
			// and wait; otherwise the region is not ours to touch
			if e.gen.Load() == g && e.drain() {
				e.helped.Store(true)
			}
			if e.active.Add(-1) == 0 && e.joining.Load() {
				select {
				case e.left <- struct{}{}:
				default:
				}
			}
			idle = time.Now()
			yielded = idle
			continue
		}
		spinPause()
		if polls%forkPolls != 0 {
			continue
		}
		switch now := time.Now(); {
		case now.Sub(idle) >= forkSpin:
			e.parked.Add(1)
			<-e.lot
			e.parked.Add(-1)
			idle = time.Now()
			yielded = idle
		case now.Sub(yielded) >= forkYield:
			runtime.Gosched()
			yielded = time.Now()
		}
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

// ForkCounts are the executor's lifetime counters.
type ForkCounts struct {
	Regions    int64 // regions fanned out to the helpers
	InlineBusy int64 // regions run inline because the helpers were serving another caller
	Helped     int64 // fanned-out regions a helper ran a span of
	Wakes      int64 // helpers woken from the parking lot
}

// ForkStats returns the executor's counters. Helped well below Regions
// means the host is not granting this process a second core.
func ForkStats() ForkCounts {
	return ForkCounts{forkRegions.Load(), forkInlineBusy.Load(), forkHelped.Load(), forkWakes.Load()}
}
