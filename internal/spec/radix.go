// Package spec is the prefix KV cache: a radix tree that shares prefill
// K/V rows across requests with a common system prompt, so a request
// only computes its unshared suffix. See docs/ARCHITECTURE.md ("Prefix
// KV cache").
package spec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"rt3/internal/obs"
	"rt3/internal/transformer"
)

// Radix is the cross-request prefix KV cache: a forest of token tries
// whose nodes own immutable copies of prefill K/V rows. Each root is
// keyed by (level, exact frozen-memory tokens) and holds the memory's
// cross-attention projections plus the prefix's decoder self-attention
// rows; descendants own the self-attention rows of suffix token runs
// (radix-compressed: one node per unbranched run, split on demand).
// Under a frozen memory the decoder rows of position i depend only on
// tokens 0..i, so requests sharing a system prompt can load the cached
// rows and compute only their unshared suffix — bit-identical to a
// fresh prefill, the invariant the property tests pin. Matched paths
// are pinned by refcount while their rows are copied out, and a row
// budget evicts the coldest unpinned leaves: lowest heat first, least
// recently used among equals (see heatWindow).
type Radix struct {
	mu      sync.Mutex
	roots   map[string]*radixNode
	capRows int
	used    int
	clock   uint64

	// ghosts counts every lookup of a prompt, hit or miss, by a 64-bit
	// hash of its prefix tokens without the level, so the count outlives
	// the prompt's eviction and a level switch; sampled is the prefix
	// rows looked up since the counts were last halved.
	ghosts  map[uint64]uint32
	sampled int

	lookups, hits, hitRows          atomic.Int64
	inserts, insertedRows           atomic.Int64
	evictions, evictedRows          atomic.Int64
	rootEvictions, admissionRejects atomic.Int64
}

// heatWindow is the sample window of the retention order, in budgets'
// worth of looked-up prefix rows: once heatWindow*capRows prefix rows
// have been looked up, every count (ghosts and trie nodes) is halved
// and ghosts that reach zero are dropped, so a prompt that stops
// arriving fades within a few windows. 64 gives every root the budget
// can hold 64 lookups per window; on the benchmark-shaped trace of
// TestRadixKeepsHotPrefixes a window of 4 keeps 146 of 208 lookups, 8
// keeps 157, 16 keeps 165, 32 and up 167 — too short a window forgets
// the third and fourth prompt between their arrivals, so stay above 16.
// The halving also bounds the ghost table: the counts sum to at most
// two windows' lookups and every kept ghost counts at least one, which
// is 2*heatWindow ghosts per root the budget can hold (16 bytes each).
const heatWindow = 64

// radixNode is one trie node. Roots have a nil edge and carry the
// cross-attention span; every node's span holds exactly one self-
// attention K/V row per edge token (per decoder layer), rooted at the
// concatenation of its ancestors' rows.
type radixNode struct {
	parent   *radixNode
	children map[int]*radixNode // keyed by the first token of the child's edge
	edge     []int
	span     *transformer.KVSpan // self rows; roots: the prefix rows
	cross    *transformer.KVSpan // roots only: frozen memory projections
	refs     int
	// heat counts the matches that walked through the node since it was
	// inserted (a root starts from its prompt's ghost count), halved with
	// the ghosts; tick is the clock of the last match or insert through it.
	heat uint32
	tick uint64
}

// colder reports whether eviction takes n before m: lower heat, older
// tick among equals.
func (n *radixNode) colder(m *radixNode) bool {
	return n.heat < m.heat || n.heat == m.heat && n.tick < m.tick
}

// NewRadix builds a prefix cache bounded to capacityRows cached
// self-attention rows (<= 0: unbounded).
func NewRadix(capacityRows int) *Radix {
	return &Radix{
		roots:   make(map[string]*radixNode),
		ghosts:  make(map[uint64]uint32),
		capRows: capacityRows,
	}
}

// rootKey is the exact map key of (level, memory): eight bytes a value,
// so two prompts never share a key and the rows of one are never served
// to the other.
func rootKey(level int, memory []int) string {
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

func commonPrefix(a, b []int) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Hit is a pinned match: the path nodes' refcounts are held so eviction
// cannot free the spans while the caller copies them into a state.
// Callers must Release exactly once.
type Hit struct {
	r       *Radix
	path    []*radixNode
	spans   []*transformer.KVSpan
	cross   *transformer.KVSpan
	prefix  int
	matched int
}

// Matched returns how many suffix tokens the trie covered.
func (h *Hit) Matched() int { return h.matched }

// Rows returns the total cached rows a Load installs (prefix+matched).
func (h *Hit) Rows() int { return h.prefix + h.matched }

// Load copies the hit's rows into st (resetting it): the frozen memory
// plus the prefix and matched-suffix self rows, leaving Pos at Rows().
// Safe outside the cache lock — the pinned spans are immutable.
func (h *Hit) Load(st *transformer.DecodeState) {
	st.LoadKV(h.cross, h.spans...)
}

// Release unpins the hit's path.
func (h *Hit) Release() {
	h.r.mu.Lock()
	for _, n := range h.path {
		n.refs--
	}
	h.r.mu.Unlock()
	h.path = nil
}

// Match looks up the longest cached prefix for a request with the given
// frozen-memory tokens and suffix, at the given level. It returns nil
// when no root exists for (level, memory); otherwise the hit covers the
// whole prefix plus the longest suffix run the trie holds (maximal by
// construction: the walk only stops where the trie has no continuation)
// and is pinned until Release. Hit or miss, the lookup counts towards
// the prompt's heat; the counts order eviction and never decide what a
// match returns.
func (r *Radix) Match(level int, memory, suffix []int) *Hit {
	r.lookups.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sample(memory)
	root := r.roots[rootKey(level, memory)]
	if root == nil {
		return nil
	}
	h := &Hit{r: r, cross: root.cross, prefix: root.span.Rows}
	h.path = append(h.path, root)
	h.spans = append(h.spans, root.span)
	node := root
	for h.matched < len(suffix) {
		child := node.children[suffix[h.matched]]
		if child == nil {
			break
		}
		n := commonPrefix(child.edge, suffix[h.matched:])
		if n == 0 {
			break
		}
		h.path = append(h.path, child)
		if n < len(child.edge) {
			h.spans = append(h.spans, child.span.Slice(0, n))
			h.matched += n
			break
		}
		h.spans = append(h.spans, child.span)
		h.matched += n
		node = child
	}
	r.clock++
	for _, n := range h.path {
		n.refs++
		n.heat++
		n.tick = r.clock
	}
	r.hits.Add(1)
	r.hitRows.Add(int64(h.Rows()))
	return h
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
	for _, root := range r.roots {
		root.halve()
	}
}

func (n *radixNode) halve() {
	n.heat >>= 1
	for _, c := range n.children {
		c.halve()
	}
}

// Insert copies the uncovered rows of a freshly computed split prefill
// into the trie: st must hold at least len(memory)+len(suffix) rows
// (prefix rows [0, P), suffix rows [P, P+S)). Existing coverage is left
// untouched — only a missing root and the unshared suffix tail are
// exported — and edges are split where a new suffix diverges mid-run.
// Over-capacity rows are evicted coldest first, unpinned childless nodes
// only (parents hold rows their descendants' contexts need, so eviction
// always proceeds leaf-upward). A new root enters at its prompt's ghost
// count and a new suffix leaf at zero, and admission is decided before
// any row is copied: a node that would be the first victim of its own
// insert, or that cannot fit the budget at all, is not exported.
func (r *Radix) Insert(level int, memory, suffix []int, st *transformer.DecodeState) {
	p := len(memory)
	if st.Pos() < p+len(suffix) {
		panic(fmt.Sprintf("spec: Insert with %d state rows for prefix %d + suffix %d", st.Pos(), p, len(suffix)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.evictOver()
	r.clock++
	key := rootKey(level, memory)
	root := r.roots[key]
	if root == nil {
		heat := r.ghosts[prefixHash(memory)]
		if !r.admits(p, heat) {
			return
		}
		root = &radixNode{
			children: make(map[int]*radixNode),
			span:     st.ExportSelf(0, p),
			cross:    st.ExportCross(),
			heat:     heat,
		}
		r.roots[key] = root
		r.used += p
		r.inserts.Add(1)
		r.insertedRows.Add(int64(p))
	}
	root.tick = r.clock
	node := root
	pos := 0
	for pos < len(suffix) {
		child := node.children[suffix[pos]]
		if child == nil {
			if !r.admits(len(suffix)-pos, 0) {
				return
			}
			leaf := &radixNode{
				parent:   node,
				children: make(map[int]*radixNode),
				edge:     append([]int(nil), suffix[pos:]...),
				span:     st.ExportSelf(p+pos, p+len(suffix)),
				tick:     r.clock,
			}
			node.children[suffix[pos]] = leaf
			r.used += leaf.span.Rows
			r.inserts.Add(1)
			r.insertedRows.Add(int64(leaf.span.Rows))
			return
		}
		n := commonPrefix(child.edge, suffix[pos:])
		if n < len(child.edge) {
			// split: an intermediate node keeps the shared run; the
			// existing child keeps the remainder. Spans are re-sliced over
			// shared backing rows, so pinned hits through the old child
			// stay valid; the intermediate needs no refcount of its own —
			// it cannot be evicted while the pinned child exists (eviction
			// is childless-only) and released rows are GC-safe regardless.
			// Every match through the child walked the shared run, so the
			// intermediate inherits its heat.
			mid := &radixNode{
				parent:   node,
				children: make(map[int]*radixNode),
				edge:     append([]int(nil), child.edge[:n]...),
				span:     child.span.Slice(0, n),
				heat:     child.heat,
			}
			child.edge = append([]int(nil), child.edge[n:]...)
			child.span = child.span.Slice(n, child.span.Rows)
			child.parent = mid
			mid.children[child.edge[0]] = child
			node.children[suffix[pos]] = mid
			child = mid
		}
		child.tick = r.clock
		node = child
		pos += n
	}
}

// admits reports whether a new node of the given rows and heat, touched
// at the current clock, would outlast its own insert: evictOver frees
// every colder node it can reach before it frees the new one, so the
// node stays exactly when those rows bring the cache within budget. A
// refusal is counted. Called with the lock held.
func (r *Radix) admits(rows int, heat uint32) bool {
	if r.capRows <= 0 || r.used+rows <= r.capRows {
		return true
	}
	probe := &radixNode{heat: heat, tick: r.clock}
	free := 0
	for _, root := range r.roots {
		n, _ := colderRows(root, probe)
		free += n
	}
	if r.used+rows-free <= r.capRows {
		return true
	}
	r.admissionRejects.Add(1)
	return false
}

// colderRows returns the rows under n that eviction can free before it
// reaches probe — a node goes once it is unpinned, colder than probe and
// rid of its children — and whether n itself is among them. The nodes
// of the insert in progress carry probe's tick, so none of them counts.
func colderRows(n, probe *radixNode) (rows int, all bool) {
	all = n.refs == 0 && n.colder(probe)
	for _, c := range n.children {
		cr, ca := colderRows(c, probe)
		rows += cr
		all = all && ca
	}
	if all {
		rows += n.span.Rows
	}
	return rows, all
}

// evictOver frees the coldest unpinned childless nodes until the row
// budget holds (or only pinned/parent nodes remain). Called with the
// lock held.
func (r *Radix) evictOver() {
	if r.capRows <= 0 {
		return
	}
	for r.used > r.capRows {
		var victim *radixNode
		var victimKey string
		for key, root := range r.roots {
			if n := coldestLeaf(root); n != nil && (victim == nil || n.colder(victim)) {
				victim, victimKey = n, key
			}
		}
		if victim == nil {
			return
		}
		if victim.parent == nil {
			delete(r.roots, victimKey)
			r.rootEvictions.Add(1)
		} else {
			delete(victim.parent.children, victim.edge[0])
		}
		r.used -= victim.span.Rows
		r.evictions.Add(1)
		r.evictedRows.Add(int64(victim.span.Rows))
	}
}

// coldestLeaf returns the first node eviction takes under node:
// unpinned, childless. The root itself qualifies only when childless.
func coldestLeaf(node *radixNode) *radixNode {
	if len(node.children) == 0 {
		if node.refs == 0 {
			return node
		}
		return nil
	}
	var best *radixNode
	for _, c := range node.children {
		if n := coldestLeaf(c); n != nil && (best == nil || n.colder(best)) {
			best = n
		}
	}
	return best
}

// RadixStats is a cache accounting snapshot.
type RadixStats struct {
	Lookups, Hits, HitRows int64
	Inserts, InsertedRows  int64
	Evictions, EvictedRows int64
	// RootEvictions counts whole prompts evicted (a subset of Evictions);
	// AdmissionRejects counts nodes Insert did not copy because they would
	// have been the first victims of their own insert.
	RootEvictions, AdmissionRejects int64
	UsedRows                        int
}

// Stats snapshots the cache counters.
func (r *Radix) Stats() RadixStats {
	r.mu.Lock()
	used := r.used
	r.mu.Unlock()
	return RadixStats{
		Lookups: r.lookups.Load(), Hits: r.hits.Load(), HitRows: r.hitRows.Load(),
		Inserts: r.inserts.Load(), InsertedRows: r.insertedRows.Load(),
		Evictions: r.evictions.Load(), EvictedRows: r.evictedRows.Load(),
		RootEvictions: r.rootEvictions.Load(), AdmissionRejects: r.admissionRejects.Load(),
		UsedRows: used,
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
		"Prefix-cache hits (root found; rows loaded instead of prefilled).",
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
		"Whole prompts (roots) evicted from the prefix cache; climbing beside the lookups means the cache thrashes.",
		func() float64 { return float64(r.rootEvictions.Load()) })
	reg.CounterFunc("rt3_prefix_admission_rejects_total",
		"Prefix-cache inserts skipped because the rows would have been the first victims of their own insert.",
		func() float64 { return float64(r.admissionRejects.Load()) })
	reg.GaugeFunc("rt3_prefix_cache_rows",
		"K/V rows currently held by the prefix cache.",
		func() float64 { return float64(r.UsedRows()) })
}
