// Package spec is the prefix KV cache: one entry per (level, system
// prompt) that shares the prompt's prefill K/V rows across requests, so
// a request only computes its unshared suffix. See docs/ARCHITECTURE.md
// ("Prefix KV cache").
package spec

import (
	"strings"
	"sync"
	"sync/atomic"

	"rt3/internal/obs"
	"rt3/internal/transformer"
)

// Radix is the cross-request prefix KV cache. Each entry is keyed by
// (level, exact frozen-memory tokens) and owns a frozen DecodeState
// snapshot of the prompt's prefill: the memory's cross-attention
// projections and the self rows [0, len(memory)), in the KV cache's own
// layout, so a hit copies them without a transpose. Under a frozen
// memory the decoder rows of position i depend only on tokens 0..i, so
// requests sharing a system prompt can load the cached rows and
// teacher-force only their own suffix — bit-identical to a fresh
// prefill, the invariant the property tests pin. A matched entry is
// pinned by refcount while its rows are copied out, and a row budget
// evicts the coldest unpinned entries: lowest heat first, least
// recently used among equals (see heatWindow).
type Radix struct {
	mu      sync.Mutex
	entries map[string]*entry
	capRows int
	used    int
	clock   uint64

	// ghosts counts every lookup of a prompt, hit or miss, by a 64-bit
	// hash of its tokens without the level, so the count outlives the
	// prompt's eviction and a level switch; sampled is the prompt rows
	// looked up since the counts were last halved.
	ghosts  map[uint64]uint32
	sampled int

	lookups, hits, hitRows atomic.Int64
	inserts, insertedRows  atomic.Int64
	evictions, evictedRows atomic.Int64
	admissionRejects       atomic.Int64
}

// heatWindow is the sample window of the retention order, in budgets'
// worth of looked-up prompt rows: once heatWindow*capRows prompt rows
// have been looked up, every count (ghosts and entries) is halved and
// ghosts that reach zero are dropped, so a prompt that stops arriving
// fades within a few windows. 64 gives every entry the budget can hold
// 64 lookups per window; on the benchmark-shaped trace of
// TestRadixKeepsHotPrefixes a window of 4 keeps 146 of 208 lookups, 8
// keeps 157, 16 keeps 165, 32 and up 167 — too short a window forgets
// the third and fourth prompt between their arrivals, so stay above 16.
// The halving also bounds the ghost table: the counts sum to at most
// two windows' lookups and every kept ghost counts at least one, which
// is 2*heatWindow ghosts per entry the budget can hold (16 bytes each).
const heatWindow = 64

// entry is one cached prompt.
type entry struct {
	st   *transformer.DecodeState // frozen snapshot at Pos len(memory)
	refs int
	// heat counts the matches of the entry since it was inserted
	// (starting from its prompt's ghost count), halved with the ghosts;
	// tick is the clock of the last match or insert of it.
	heat uint32
	tick uint64
}

// colder reports whether eviction takes e before f: lower heat, older
// tick among equals.
func (e *entry) colder(f *entry) bool {
	return e.heat < f.heat || e.heat == f.heat && e.tick < f.tick
}

// NewRadix builds a prefix cache bounded to capacityRows cached
// self-attention rows (<= 0: unbounded).
func NewRadix(capacityRows int) *Radix {
	return &Radix{
		entries: make(map[string]*entry),
		ghosts:  make(map[uint64]uint32),
		capRows: capacityRows,
	}
}

// entryKey is the exact map key of (level, memory): eight bytes a value,
// so two prompts never share a key and the rows of one are never served
// to the other.
func entryKey(level int, memory []int) string {
	var b strings.Builder
	b.Grow(8 * (1 + len(memory)))
	put := func(v int) {
		for s := 0; s < 64; s += 8 {
			b.WriteByte(byte(uint64(v) >> s))
		}
	}
	put(level)
	for _, t := range memory {
		put(t)
	}
	return b.String()
}

// prefixHash is the ghost table's key (FNV-1a over the token values).
// Two prompts that collide share a count, which can only blur the
// retention order.
func prefixHash(memory []int) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range memory {
		h = (h ^ uint64(t)) * 1099511628211
	}
	return h
}

// Hit is a pinned match: the entry's refcount is held so eviction
// cannot free its snapshot while the caller copies it into a state.
// Callers must Release exactly once.
type Hit struct {
	r *Radix
	e *entry
}

// Rows returns the cached rows a Load installs: the prompt's length.
func (h *Hit) Rows() int { return h.e.st.Pos() }

// Load copies the hit's rows into st (resetting it): the frozen memory
// plus the prompt's self rows, leaving Pos at Rows(). Safe outside the
// cache lock — the pinned snapshot is immutable.
func (h *Hit) Load(st *transformer.DecodeState) {
	st.CopyFrom(h.e.st)
}

// Release unpins the hit's entry.
func (h *Hit) Release() {
	h.r.mu.Lock()
	h.e.refs--
	h.r.mu.Unlock()
}

// Match looks up the cached rows of the given frozen-memory tokens at
// the given level. It returns nil when no entry exists for (level,
// memory); otherwise the hit covers the whole memory and is pinned
// until Release. The suffix argument is ignored: the cache holds
// prompts only. Hit or miss, the lookup counts towards the prompt's
// heat; the counts order eviction and never decide what a match
// returns.
func (r *Radix) Match(level int, memory, _ []int) *Hit {
	r.lookups.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sample(memory)
	e := r.entries[entryKey(level, memory)]
	if e == nil {
		return nil
	}
	r.clock++
	e.refs++
	e.heat++
	e.tick = r.clock
	r.hits.Add(1)
	r.hitRows.Add(int64(e.st.Pos()))
	return &Hit{r: r, e: e}
}

// sample counts one lookup of memory in the ghost table, first halving
// every count when the window is full. An unbounded cache never evicts
// and keeps no counts. Called with the lock held.
func (r *Radix) sample(memory []int) {
	if r.capRows <= 0 {
		return
	}
	if r.sampled >= heatWindow*r.capRows {
		r.age()
	}
	r.sampled += len(memory)
	r.ghosts[prefixHash(memory)]++
}

// age halves every count and drops the ghosts that reach zero.
func (r *Radix) age() {
	r.sampled = 0
	for h, c := range r.ghosts {
		if c >>= 1; c == 0 {
			delete(r.ghosts, h)
		} else {
			r.ghosts[h] = c
		}
	}
	for _, e := range r.entries {
		e.heat >>= 1
	}
}

// Insert copies the prompt's rows out of a freshly computed prefill: st
// must hold at least len(memory) rows, which Snapshot checks when it
// copies them. The suffix argument is ignored: the cache holds prompts
// only. A cached prompt is only touched; a new one enters at its
// prompt's ghost count, and admission is decided before any row is
// copied: an entry that would be the first victim of its own insert, or
// that cannot fit the budget at all, is not copied. Over-capacity rows
// are then evicted coldest first, unpinned entries only.
func (r *Radix) Insert(level int, memory, _ []int, st *transformer.DecodeState) {
	p := len(memory)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	key := entryKey(level, memory)
	if e := r.entries[key]; e != nil {
		e.tick = r.clock
		return
	}
	heat := r.ghosts[prefixHash(memory)]
	if !r.admits(p, heat) {
		return
	}
	r.entries[key] = &entry{st: st.Snapshot(p), heat: heat, tick: r.clock}
	r.used += p
	r.inserts.Add(1)
	r.insertedRows.Add(int64(p))
	r.evictOver()
}

// admits reports whether a new entry of the given rows and heat, touched
// at the current clock, would outlast its own insert: evictOver frees
// every unpinned colder entry before it frees the new one, so the entry
// stays exactly when those rows bring the cache within budget. A
// refusal is counted. Called with the lock held.
func (r *Radix) admits(rows int, heat uint32) bool {
	if r.capRows <= 0 || r.used+rows <= r.capRows {
		return true
	}
	probe := entry{heat: heat, tick: r.clock}
	free := 0
	for _, e := range r.entries {
		if e.refs == 0 && e.colder(&probe) {
			free += e.st.Pos()
		}
	}
	if r.used+rows-free <= r.capRows {
		return true
	}
	r.admissionRejects.Add(1)
	return false
}

// evictOver frees the coldest unpinned entries until the row budget
// holds (or only pinned entries remain). Called with the lock held.
func (r *Radix) evictOver() {
	for r.capRows > 0 && r.used > r.capRows {
		var victim *entry
		var victimKey string
		for key, e := range r.entries {
			if e.refs == 0 && (victim == nil || e.colder(victim)) {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victimKey)
		r.used -= victim.st.Pos()
		r.evictions.Add(1)
		r.evictedRows.Add(int64(victim.st.Pos()))
	}
}

// RadixStats is a cache accounting snapshot.
type RadixStats struct {
	Lookups, Hits, HitRows int64
	Inserts, InsertedRows  int64
	// Evictions counts whole prompts evicted; AdmissionRejects counts
	// prompts Insert did not copy because they would have been the first
	// victims of their own insert.
	Evictions, EvictedRows int64
	AdmissionRejects       int64
	UsedRows               int
}

// Stats snapshots the cache counters.
func (r *Radix) Stats() RadixStats {
	return RadixStats{
		Lookups: r.lookups.Load(), Hits: r.hits.Load(), HitRows: r.hitRows.Load(),
		Inserts: r.inserts.Load(), InsertedRows: r.insertedRows.Load(),
		Evictions: r.evictions.Load(), EvictedRows: r.evictedRows.Load(),
		AdmissionRejects: r.admissionRejects.Load(),
		UsedRows:         r.UsedRows(),
	}
}

// UsedRows returns the cached self-attention rows currently held.
func (r *Radix) UsedRows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// RegisterMetrics exposes the cache counters on an obs registry
// (rt3_prefix_* families).
func (r *Radix) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("rt3_prefix_lookups_total",
		"Prefix-cache lookups.",
		func() float64 { return float64(r.lookups.Load()) })
	reg.CounterFunc("rt3_prefix_hits_total",
		"Prefix-cache hits (prompt found; rows loaded instead of prefilled).",
		func() float64 { return float64(r.hits.Load()) })
	reg.CounterFunc("rt3_prefix_hit_rows_total",
		"K/V rows served from the prefix cache instead of recomputed.",
		func() float64 { return float64(r.hitRows.Load()) })
	reg.CounterFunc("rt3_prefix_inserted_rows_total",
		"K/V rows copied into the prefix cache.",
		func() float64 { return float64(r.insertedRows.Load()) })
	reg.CounterFunc("rt3_prefix_evicted_rows_total",
		"K/V rows evicted from the prefix cache.",
		func() float64 { return float64(r.evictedRows.Load()) })
	reg.CounterFunc("rt3_prefix_root_evictions_total",
		"Prompts evicted from the prefix cache; climbing beside the lookups means the cache thrashes.",
		func() float64 { return float64(r.evictions.Load()) })
	reg.CounterFunc("rt3_prefix_admission_rejects_total",
		"Prefix-cache inserts skipped because the rows would have been the first victims of their own insert.",
		func() float64 { return float64(r.admissionRejects.Load()) })
	reg.GaugeFunc("rt3_prefix_cache_rows",
		"K/V rows currently held by the prefix cache.",
		func() float64 { return float64(r.UsedRows()) })
}
