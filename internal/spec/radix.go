// Package spec is the prefix KV cache: a radix tree that shares prefill
// K/V rows across requests with a common system prompt, so a request
// only computes its unshared suffix. See docs/ARCHITECTURE.md ("Prefix
// KV cache").
package spec

import (
	"fmt"
	"strconv"
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
// budget evicts least-recently-used unpinned leaves.
type Radix struct {
	mu      sync.Mutex
	roots   map[string]*radixNode
	capRows int
	used    int
	clock   uint64

	lookups, hits, hitRows atomic.Int64
	inserts, insertedRows  atomic.Int64
	evictions, evictedRows atomic.Int64
}

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
	tick     uint64
}

// NewRadix builds a prefix cache bounded to capacityRows cached
// self-attention rows (<= 0: unbounded).
func NewRadix(capacityRows int) *Radix {
	return &Radix{roots: make(map[string]*radixNode), capRows: capacityRows}
}

func rootKey(level int, memory []int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(level))
	for _, t := range memory {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
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
// and is pinned until Release.
func (r *Radix) Match(level int, memory, suffix []int) *Hit {
	r.lookups.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
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
		n.tick = r.clock
	}
	r.hits.Add(1)
	r.hitRows.Add(int64(h.Rows()))
	return h
}

// Insert copies the uncovered rows of a freshly computed split prefill
// into the trie: st must hold at least len(memory)+len(suffix) rows
// (prefix rows [0, P), suffix rows [P, P+S)). Existing coverage is left
// untouched — only a missing root and the unshared suffix tail are
// exported — and edges are split where a new suffix diverges mid-run.
// Over-capacity rows are evicted least-recently-used, unpinned childless
// nodes first (parents hold rows their descendants' contexts need, so
// eviction always proceeds leaf-upward).
func (r *Radix) Insert(level int, memory, suffix []int, st *transformer.DecodeState) {
	p := len(memory)
	if st.Pos() < p+len(suffix) {
		panic(fmt.Sprintf("spec: Insert with %d state rows for prefix %d + suffix %d", st.Pos(), p, len(suffix)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := rootKey(level, memory)
	root := r.roots[key]
	if root == nil {
		root = &radixNode{
			children: make(map[int]*radixNode),
			span:     st.ExportSelf(0, p),
			cross:    st.ExportCross(),
		}
		r.roots[key] = root
		r.used += p
		r.inserts.Add(1)
		r.insertedRows.Add(int64(p))
	}
	r.clock++
	root.tick = r.clock
	node := root
	pos := 0
	for pos < len(suffix) {
		child := node.children[suffix[pos]]
		if child == nil {
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
			pos = len(suffix)
			break
		}
		n := commonPrefix(child.edge, suffix[pos:])
		if n < len(child.edge) {
			// split: an intermediate node keeps the shared run; the
			// existing child keeps the remainder. Spans are re-sliced over
			// shared backing rows, so pinned hits through the old child
			// stay valid; the intermediate needs no refcount of its own —
			// it cannot be evicted while the pinned child exists (eviction
			// is childless-only) and released rows are GC-safe regardless.
			mid := &radixNode{
				parent:   node,
				children: make(map[int]*radixNode),
				edge:     append([]int(nil), child.edge[:n]...),
				span:     child.span.Slice(0, n),
				tick:     r.clock,
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
	r.evictOver()
}

// evictOver frees least-recently-used unpinned childless nodes until the
// row budget holds (or only pinned/parent nodes remain). Called with the
// lock held.
func (r *Radix) evictOver() {
	if r.capRows <= 0 {
		return
	}
	for r.used > r.capRows {
		var victim *radixNode
		var victimKey string
		for key, root := range r.roots {
			n, k := findLRULeaf(root, key)
			if n != nil && (victim == nil || n.tick < victim.tick) {
				victim, victimKey = n, k
			}
		}
		if victim == nil {
			return
		}
		if victim.parent == nil {
			delete(r.roots, victimKey)
		} else {
			delete(victim.parent.children, victim.edge[0])
		}
		r.used -= victim.span.Rows
		r.evictions.Add(1)
		r.evictedRows.Add(int64(victim.span.Rows))
	}
}

// findLRULeaf returns the oldest evictable node under root: unpinned,
// childless. The root itself qualifies only when childless.
func findLRULeaf(node *radixNode, key string) (*radixNode, string) {
	if len(node.children) == 0 {
		if node.refs == 0 {
			return node, key
		}
		return nil, ""
	}
	var best *radixNode
	for _, c := range node.children {
		if n, _ := findLRULeaf(c, key); n != nil && (best == nil || n.tick < best.tick) {
			best = n
		}
	}
	return best, key
}

// RadixStats is a cache accounting snapshot.
type RadixStats struct {
	Lookups, Hits, HitRows int64
	Inserts, InsertedRows  int64
	Evictions, EvictedRows int64
	UsedRows               int
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
	reg.GaugeFunc("rt3_prefix_cache_rows",
		"K/V rows currently held by the prefix cache.",
		func() float64 { return float64(r.UsedRows()) })
}
