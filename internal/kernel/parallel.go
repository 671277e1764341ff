package kernel

import (
	"sync"

	"rt3/internal/mat"
)

// MinRowsPerWorker is the size-awareness threshold of the parallel
// executor: a MulInto call fans out at most x.Rows/MinRowsPerWorker
// workers, so small batches run inline (or on fewer workers) instead of
// paying fan-out overhead for a handful of rows.
const MinRowsPerWorker = 4

// Pool is a reusable row-partitioning worker pool. One pool can execute
// any number of kernels (sequentially): a serving replica creates one
// pool and binds every layer's kernel to it, so goroutine count scales
// with replicas, not with layers or deployed levels.
//
// Each worker owns reusable scratch Matrix headers aliasing its row span
// of dst and x, so steady-state execution is allocation free.
//
// A Pool serializes its own use: MulInto must not be called concurrently
// on the same instance (its call state is shared). The executed kernel
// must tolerate concurrent MulInto calls on disjoint destinations —
// true of every kernel in this repo, whose weights are read-only during
// execution.
type Pool struct {
	workers int

	tasks chan int
	wg    sync.WaitGroup
	once  sync.Once

	// per-call state, published to workers by the tasks channel send and
	// read back at wg.Wait.
	k      Kernel
	dst, x *mat.Matrix
	nw     int

	// views[i] holds worker slot i's reusable dst/x headers.
	views []viewPair
}

type viewPair struct {
	dst, x mat.Matrix
}

// NewPool starts a pool of the given width (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan int, workers),
		views:   make([]viewPair, workers),
	}
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// work is the worker loop: each task is a slot index identifying the row
// span of the current call to execute.
func (p *Pool) work() {
	for slot := range p.tasks {
		p.run(slot)
		p.wg.Done()
	}
}

// run executes slot's row span of the current call, reusing the slot's
// scratch headers.
func (p *Pool) run(slot int) {
	rows := p.x.Rows
	r0 := slot * rows / p.nw
	r1 := (slot + 1) * rows / p.nw
	if r0 >= r1 {
		return
	}
	v := &p.views[slot]
	v.x.Rows, v.x.Cols = r1-r0, p.x.Cols
	v.x.Data = p.x.Data[r0*p.x.Cols : r1*p.x.Cols]
	v.dst.Rows, v.dst.Cols = r1-r0, p.dst.Cols
	v.dst.Data = p.dst.Data[r0*p.dst.Cols : r1*p.dst.Cols]
	p.k.MulInto(&v.dst, &v.x)
}

// MulInto executes k over the batch, split into contiguous row spans,
// one per active worker. The active worker count is
// min(workers, x.Rows/MinRowsPerWorker); below 2 the kernel runs inline
// on the calling goroutine.
func (p *Pool) MulInto(k Kernel, dst, x *mat.Matrix) {
	checkDst(k, dst, x)
	nw := p.workers
	if byRows := x.Rows / MinRowsPerWorker; byRows < nw {
		nw = byRows
	}
	if nw <= 1 {
		k.MulInto(dst, x)
		return
	}
	parallelDispatches.Add(1)
	parallelRows.Add(int64(x.Rows))
	p.k, p.dst, p.x, p.nw = k, dst, x, nw
	p.wg.Add(nw)
	for i := 0; i < nw; i++ {
		p.tasks <- i
	}
	p.wg.Wait()
	p.k, p.dst, p.x = nil, nil, nil
}

// Bind returns a Kernel view that executes k on this pool. Bound views
// are cheap structs: bind as many kernels as needed to one pool, as long
// as they are used sequentially (see the Pool concurrency contract).
func (p *Pool) Bind(k Kernel) Kernel {
	if pk, ok := k.(*ParallelKernel); ok {
		k = pk.k
	}
	return &ParallelKernel{k: k, pool: p}
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines. Optional: an abandoned pool holds
// only idle goroutines, but deterministic teardown keeps tests and
// long-running processes tidy. The pool must not be used after Close.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.tasks) })
}

// ParallelKernel is a kernel bound to a Pool: MulInto row-partitions the
// batch across the pool's workers. Obtained from Parallel or Pool.Bind.
type ParallelKernel struct {
	k    Kernel
	pool *Pool
}

// Parallel wraps k in a size-aware parallel executor with a dedicated
// pool of the given width. workers <= 1 returns k unchanged; wrapping an
// existing ParallelKernel re-wraps its inner kernel instead of nesting.
func Parallel(k Kernel, workers int) Kernel {
	if workers <= 1 {
		return k
	}
	if pk, ok := k.(*ParallelKernel); ok {
		k = pk.k
	}
	return &ParallelKernel{k: k, pool: NewPool(workers)}
}

// MulInto implements Kernel through the bound pool.
func (p *ParallelKernel) MulInto(dst, x *mat.Matrix) { p.pool.MulInto(p.k, dst, x) }

// Dims implements Kernel.
func (p *ParallelKernel) Dims() (in, out int) { return p.k.Dims() }

// NNZ implements Kernel.
func (p *ParallelKernel) NNZ() int { return p.k.NNZ() }

// IndexWords implements Kernel.
func (p *ParallelKernel) IndexWords() int { return p.k.IndexWords() }

// Workers returns the bound pool's width.
func (p *ParallelKernel) Workers() int { return p.pool.Workers() }

// Inner returns the wrapped kernel.
func (p *ParallelKernel) Inner() Kernel { return p.k }

// Close stops the bound pool's workers. Note that views sharing one pool
// (Pool.Bind) share its lifetime: closing any of them closes the pool.
func (p *ParallelKernel) Close() { p.pool.Close() }

var _ Kernel = (*ParallelKernel)(nil)
