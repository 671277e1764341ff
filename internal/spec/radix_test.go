package spec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"rt3/internal/transformer"
)

// radixCfg is deliberately tiny: a narrow vocabulary forces dense
// suffix overlap, so random workloads exercise edge splits, partial
// matches, and shared runs rather than disjoint leaves.
var radixCfg = transformer.Config{
	Vocab: 12, Dim: 8, Heads: 2, FFHidden: 12, EncLayers: 1, DecLayers: 2, SeqLen: 10,
}

func newRadixModel(t testing.TB) *transformer.LMModel {
	t.Helper()
	m := transformer.NewLMModel(radixCfg, rand.New(rand.NewSource(7)))
	m.SetBufferReuse(true)
	return m
}

// radixPrefixes are the shared system prompts: the first scriptPrefixes
// drive the property workload, the six 7-token ones after them are the
// prompts of the retention tests (tracePrefix).
var radixPrefixes = [][]int{
	{3, 1, 4},
	{2, 7, 1, 8},
	{0, 5, 9, 2, 6, 5, 3},
	{1, 11, 8, 9, 7, 9, 3},
	{4, 6, 2, 6, 4, 3, 3},
	{10, 3, 2, 7, 9, 5, 0},
	{6, 8, 4, 1, 9, 7, 1},
	{9, 3, 9, 9, 3, 7, 5},
}

const (
	scriptPrefixes = 2
	tracePrefixLen = 7
)

// tracePrefix maps a retention test's prompt number to its index in
// radixPrefixes.
func tracePrefix(k int) int { return scriptPrefixes + k }

// splitPrefill computes a split prefill the way the server does: the
// prefix alone through Prefill (frozen memory = encoder(prefix)), the
// suffix teacher-forced through DecodeChunk.
func splitPrefill(m *transformer.LMModel, prefix, suffix []int) *transformer.DecodeState {
	st := m.NewDecodeState()
	st.Reserve(len(prefix) + len(suffix) + 1)
	m.Prefill([]*transformer.DecodeState{st}, [][]int{prefix})
	if len(suffix) > 0 {
		m.DecodeChunk([]*transformer.DecodeState{st}, [][]int{suffix})
	}
	return st
}

// freshKV memoizes fresh split prefills so repeated property checks
// don't recompute the same reference rows.
type freshKV struct {
	m     *transformer.LMModel
	cache map[string]*transformer.DecodeState
}

func (f *freshKV) state(pi int, suffix []int) *transformer.DecodeState {
	key := fmt.Sprint(pi, suffix)
	if st, ok := f.cache[key]; ok {
		return st
	}
	st := splitPrefill(f.m, radixPrefixes[pi], suffix)
	f.cache[key] = st
	return st
}

// checkRadixInvariants walks the trie under the lock and asserts the
// structural invariants every operation must preserve: per-node span
// rows equal edge length, children are keyed by their edge's first
// token and back-linked, accounted rows equal the sum of spans, and —
// when the caller holds no hits — every refcount is zero.
func checkRadixInvariants(t *testing.T, r *Radix, pinned bool) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := 0
	var walk func(n *radixNode)
	walk = func(n *radixNode) {
		if n.parent != nil {
			if len(n.edge) == 0 {
				t.Fatal("non-root node with empty edge")
			}
			if n.span.Rows != len(n.edge) {
				t.Fatalf("node owns %d rows for %d edge tokens", n.span.Rows, len(n.edge))
			}
		}
		if !pinned && n.refs != 0 {
			t.Fatalf("refcount %d with no outstanding hits", n.refs)
		}
		if n.refs < 0 {
			t.Fatalf("negative refcount %d", n.refs)
		}
		rows += n.span.Rows
		for tok, c := range n.children {
			if c.edge[0] != tok {
				t.Fatalf("child keyed %d but edge starts %d", tok, c.edge[0])
			}
			if c.parent != n {
				t.Fatal("child parent back-link broken")
			}
			walk(c)
		}
	}
	for _, root := range r.roots {
		if root.cross == nil {
			t.Fatal("root without cross span")
		}
		walk(root)
	}
	if rows != r.used {
		t.Fatalf("accounted %d rows, trie holds %d", r.used, rows)
	}
}

// trieCoverage recomputes the longest cached run for a query token by
// token — an independent walk the Match result must equal for the
// maximality property.
func trieCoverage(r *Radix, level int, memory, suffix []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	node := r.roots[rootKey(level, memory)]
	if node == nil {
		return -1
	}
	off := 0 // position within node.edge (root edge is empty)
	matched := 0
	for matched < len(suffix) {
		if off == len(node.edge) {
			next := node.children[suffix[matched]]
			if next == nil {
				return matched
			}
			node, off = next, 0
		}
		if node.edge[off] != suffix[matched] {
			return matched
		}
		off++
		matched++
	}
	return matched
}

// verifyHit loads a pinned hit into a scratch state and checks the
// rows bit-equal a fresh split prefill of the same tokens — the cache
// soundness property: a hit is indistinguishable from recomputing.
func verifyHit(t *testing.T, m *transformer.LMModel, h *Hit, fresh *freshKV, pi int, suffix []int) {
	t.Helper()
	st := m.NewDecodeState()
	h.Load(st)
	if st.Pos() != h.Rows() {
		t.Fatalf("hit loaded %d rows, reported %d", st.Pos(), h.Rows())
	}
	ref := fresh.state(pi, suffix[:h.Matched()])
	if !st.ExportSelf(0, st.Pos()).Equal(ref.ExportSelf(0, ref.Pos())) {
		t.Fatalf("hit self rows differ from fresh split prefill (prefix %d, matched %d)", pi, h.Matched())
	}
	if !st.ExportCross().Equal(ref.ExportCross()) {
		t.Fatalf("hit cross rows differ from fresh prefill (prefix %d)", pi)
	}
}

// TestRadixProperty drives random insert/match/evict sequences against
// shadow state and re-checks the three cache properties after every
// operation: structural invariants hold, match lengths are maximal
// (equal to an independent trie walk), and every hit's rows are
// bit-equal to a fresh prefill of the covered tokens.
func TestRadixProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runRadixScript(t, randomScript(seed, 140))
		})
	}
}

// randomScript builds an op stream for runRadixScript: each op is 8
// bytes (kind, level, prefix, suffix length, 4 token bytes).
func randomScript(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, 8*ops)
	rng.Read(script)
	return script
}

// runRadixScript interprets an op stream against a capacity-bounded
// cache; the same interpreter backs the property seeds and FuzzRadix.
func runRadixScript(t *testing.T, script []byte) {
	m := newRadixModel(t)
	const capRows = 48 // small enough that inserts routinely evict
	r := NewRadix(capRows)
	fresh := &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}
	var held []*Hit

	for len(script) >= 8 {
		op, script2 := script[:8], script[8:]
		script = script2
		pi := int(op[2]) % scriptPrefixes
		slen := 1 + int(op[3])%5
		suffix := make([]int, slen)
		for j := range suffix {
			suffix[j] = int(op[4+j%4]+byte(j)) % radixCfg.Vocab
		}
		level := int(op[1]) % 2

		switch op[0] % 4 {
		case 0, 1: // insert
			st := fresh.state(pi, suffix)
			r.Insert(level, radixPrefixes[pi], suffix, st)
			// admission may refuse a cold root (-1) or the tail under
			// pressure; anything cached must still be a prefix
			if cov := trieCoverage(r, level, radixPrefixes[pi], suffix); cov > len(suffix) {
				t.Fatalf("post-insert coverage %d for %d suffix tokens", cov, len(suffix))
			}
		case 2: // match, verify, release
			want := trieCoverage(r, level, radixPrefixes[pi], suffix)
			h := r.Match(level, radixPrefixes[pi], suffix)
			if (h == nil) != (want < 0) {
				t.Fatalf("match nil=%v but root coverage %d", h == nil, want)
			}
			if h != nil {
				if h.Matched() != want {
					t.Fatalf("matched %d, independent walk says %d", h.Matched(), want)
				}
				verifyHit(t, m, h, fresh, pi, suffix)
				h.Release()
				// counts never decide what a match returns: halve every
				// one of them and the same lookup covers the same rows
				r.mu.Lock()
				r.age()
				r.mu.Unlock()
				h = r.Match(level, radixPrefixes[pi], suffix)
				if h == nil || h.Matched() != want {
					t.Fatalf("after aging the counts the lookup changed: %v, want %d matched", h, want)
				}
				verifyHit(t, m, h, fresh, pi, suffix)
				h.Release()
			}
		case 3: // match and hold the pin (evictions must respect it)
			if h := r.Match(level, radixPrefixes[pi], suffix); h != nil {
				held = append(held, h)
				if len(held) > 3 {
					held[0].Release()
					held = held[1:]
				}
			}
		}
		checkRadixInvariants(t, r, len(held) > 0)
		if used := r.UsedRows(); len(held) == 0 && used > capRows {
			t.Fatalf("unpinned cache holds %d rows over the %d budget", used, capRows)
		}
	}
	// pinned spans must still verify after all the eviction churn above
	for _, h := range held {
		st := m.NewDecodeState()
		h.Load(st)
		if st.Pos() != h.Rows() {
			t.Fatalf("held hit loads %d rows, want %d", st.Pos(), h.Rows())
		}
		h.Release()
	}
	checkRadixInvariants(t, r, false)
}

// FuzzRadix feeds arbitrary op streams through the same interpreter as
// TestRadixProperty, so `go test -fuzz=FuzzRadix` explores insert/
// match/evict interleavings beyond the seeded corpus.
func FuzzRadix(f *testing.F) {
	f.Add(randomScript(1, 20))
	f.Add(randomScript(4, 12))
	f.Add([]byte{0, 0, 0, 2, 5, 5, 5, 5, 2, 0, 0, 2, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 8*60 {
			script = script[:8*60]
		}
		runRadixScript(t, script)
	})
}

// TestRadixPinBlocksEviction pins the refcount contract directly: a
// held hit's nodes survive arbitrary eviction pressure (the budget is
// allowed to overshoot instead), and release makes them evictable.
func TestRadixPinBlocksEviction(t *testing.T) {
	m := newRadixModel(t)
	r := NewRadix(8)
	prefix := radixPrefixes[0]
	suffix := []int{5, 6, 7, 8, 9}
	r.Insert(0, prefix, suffix, splitPrefill(m, prefix, suffix))

	h := r.Match(0, prefix, suffix)
	if h == nil || h.Matched() != len(suffix) {
		t.Fatal("setup: full match expected")
	}

	// pressure: disjoint inserts that overflow the 8-row budget many
	// times over — the pinned path must not be evicted
	for i := 0; i < 6; i++ {
		s := []int{10, (i * 2) % 10, (i*2 + 1) % 10}
		r.Insert(0, prefix, s, splitPrefill(m, prefix, s))
	}
	if cov := trieCoverage(r, 0, prefix, suffix); cov != len(suffix) {
		t.Fatalf("pinned path lost coverage: %d of %d", cov, len(suffix))
	}
	verifyHit(t, m, h, &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}, 0, suffix)
	h.Release()
	checkRadixInvariants(t, r, false)

	// after release one more insert must be able to evict it
	s := []int{9, 9, 4, 4}
	r.Insert(0, prefix, s, splitPrefill(m, prefix, s))
	if used := r.UsedRows(); used > 8+len(prefix)+len(s) {
		t.Fatalf("released rows not reclaimed: %d held", used)
	}
	checkRadixInvariants(t, r, false)
}

// TestRadixEdgeSplit pins the radix-compression path: inserting a
// diverging suffix splits the stored run, and both branches then match
// with sound rows.
func TestRadixEdgeSplit(t *testing.T) {
	m := newRadixModel(t)
	r := NewRadix(0)
	prefix := radixPrefixes[0]
	a := []int{5, 6, 7, 8}
	b := []int{5, 6, 9} // diverges inside a's stored run
	r.Insert(0, prefix, a, splitPrefill(m, prefix, a))
	r.Insert(0, prefix, b, splitPrefill(m, prefix, b))
	checkRadixInvariants(t, r, false)

	fresh := &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}
	for _, q := range [][]int{a, b, {5, 6}, {5, 6, 7}, {5, 9}} {
		h := r.Match(0, prefix, q)
		if h == nil {
			t.Fatalf("query %v: no hit", q)
		}
		if want := trieCoverage(r, 0, prefix, q); h.Matched() != want {
			t.Fatalf("query %v matched %d, walk says %d", q, h.Matched(), want)
		}
		verifyHit(t, m, h, fresh, 0, q)
		h.Release()
	}
	// rows are stored once: prefix + a + the 1 unshared token of b
	if want := len(prefix) + len(a) + 1; r.UsedRows() != want {
		t.Fatalf("split trie holds %d rows, want %d", r.UsedRows(), want)
	}
}

// TestRadixLevelIsolation pins that roots are keyed by level: rows
// cached at one pruning level are never served to another (their
// values differ — different kernels computed them).
func TestRadixLevelIsolation(t *testing.T) {
	m := newRadixModel(t)
	r := NewRadix(0)
	prefix := radixPrefixes[0]
	suffix := []int{1, 2, 3}
	r.Insert(0, prefix, suffix, splitPrefill(m, prefix, suffix))
	if h := r.Match(1, prefix, suffix); h != nil {
		t.Fatal("level 1 lookup hit level 0 rows")
	}
	if h := r.Match(0, prefix, suffix); h == nil {
		t.Fatal("same-level lookup missed")
	}
}

// TestRadixConcurrentStress hammers one cache from 8 goroutines doing
// match/load/insert against precomputed states (run under -race in
// CI). Loaded rows are checked bit-equal to the precomputed reference
// for the covered tokens — concurrency must never mix rows between
// paths.
func TestRadixConcurrentStress(t *testing.T) {
	m := newRadixModel(t)
	const workers = 8
	const itersPer = 60

	// precompute the workload single-threaded: the model is not
	// goroutine-safe, but DecodeState reads and KVSpan loads are
	type entry struct {
		pi     int
		suffix []int
		st     *transformer.DecodeState
		whole  *transformer.KVSpan
		cross  *transformer.KVSpan
	}
	rng := rand.New(rand.NewSource(11))
	var pool []entry
	for i := 0; i < 12; i++ {
		pi := i % scriptPrefixes
		suffix := make([]int, 1+rng.Intn(5))
		for j := range suffix {
			suffix[j] = rng.Intn(radixCfg.Vocab)
		}
		st := splitPrefill(m, radixPrefixes[pi], suffix)
		pool = append(pool, entry{
			pi: pi, suffix: suffix, st: st,
			whole: st.ExportSelf(0, st.Pos()),
			cross: st.ExportCross(),
		})
	}
	scratch := make([]*transformer.DecodeState, workers)
	for w := range scratch {
		scratch[w] = m.NewDecodeState()
	}

	r := NewRadix(40) // tight budget: eviction races with pinned loads
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < itersPer; i++ {
				e := pool[wrng.Intn(len(pool))]
				if wrng.Intn(2) == 0 {
					r.Insert(0, radixPrefixes[e.pi], e.suffix, e.st)
					continue
				}
				h := r.Match(0, radixPrefixes[e.pi], e.suffix)
				if h == nil {
					continue
				}
				st := scratch[w]
				h.Load(st)
				rows := h.Rows()
				if st.Pos() != rows {
					errs <- fmt.Errorf("worker %d: loaded %d rows, want %d", w, st.Pos(), rows)
				} else if !st.ExportSelf(0, rows).Equal(e.whole.Slice(0, rows)) {
					errs <- fmt.Errorf("worker %d: loaded rows differ from reference", w)
				} else if !st.ExportCross().Equal(e.cross) {
					errs <- fmt.Errorf("worker %d: cross rows differ from reference", w)
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkRadixInvariants(t, r, false)
}

// retention drives a bounded cache the way Server.admitGen does and
// verifies every hit against a fresh prefill.
type retention struct {
	t     *testing.T
	m     *transformer.LMModel
	r     *Radix
	fresh *freshKV
}

func newRetention(t *testing.T, capRows int) *retention {
	m := newRadixModel(t)
	return &retention{t: t, m: m, r: NewRadix(capRows),
		fresh: &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}}
}

// lookup is one split request for prompt k: match one suffix token short
// (the last row is always computed live), then insert what the request
// computed. It reports whether the prompt's rows were cached.
func (c *retention) lookup(level, k int, suffix []int) bool {
	c.t.Helper()
	pi := tracePrefix(k)
	probe := suffix
	if len(probe) > 0 {
		probe = probe[:len(probe)-1]
	}
	h := c.r.Match(level, radixPrefixes[pi], probe)
	if h != nil {
		if want := trieCoverage(c.r, level, radixPrefixes[pi], probe); h.Matched() != want {
			c.t.Fatalf("matched %d, independent walk says %d", h.Matched(), want)
		}
		verifyHit(c.t, c.m, h, c.fresh, pi, probe)
		h.Release()
	}
	c.r.Insert(level, radixPrefixes[pi], suffix, c.fresh.state(pi, suffix))
	checkRadixInvariants(c.t, c.r, false)
	if used := c.r.UsedRows(); used > c.r.capRows {
		c.t.Fatalf("cache holds %d rows over the %d budget", used, c.r.capRows)
	}
	return h != nil
}

// resident lists the prompts among the first n that have a root at level.
func (c *retention) resident(level, n int) []int {
	var ks []int
	for k := 0; k < n; k++ {
		if trieCoverage(c.r, level, radixPrefixes[tracePrefix(k)], nil) >= 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// weightedTrace is the benchmark's shared_prefix key order (weighted in
// bench/workload.go): n picks over k prompts, prompt i taken in
// proportion to 1/(i+1), each prompt's arrivals evenly spaced.
func weightedTrace(k, n int) []int {
	var total float64
	for i := 0; i < k; i++ {
		total += 1 / float64(i+1)
	}
	type slot struct {
		at    float64
		index int
	}
	var slots []slot
	var acc float64
	for i := 0; i < k; i++ {
		acc += float64(n) / float64(i+1) / total
		c := int(math.Round(acc)) - len(slots)
		for j := 0; j < c; j++ {
			slots = append(slots, slot{at: (float64(j) + 0.5) / float64(c), index: i})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.index
	}
	return out
}

// TestRadixKeepsHotPrefixes replays the benchmark-shaped trace — six
// prompts at weights 1/(k+1), evenly spaced, each request with its own
// 2-token suffix — through a budget of four roots plus three suffix
// leaves. The heat order keeps the hot prompts and turns the rare ones
// away: 167 of 208 lookups hit (keeping the top four from their second
// arrival on would hit 173). Recency alone lets the rare prompts and
// the one-off leaves push hot roots out again and again: 99 of 208 on
// this same trace at PR 23.
func TestRadixKeepsHotPrefixes(t *testing.T) {
	c := newRetention(t, 4*tracePrefixLen+3*2)
	rng := rand.New(rand.NewSource(5))
	trace := weightedTrace(6, 208)
	hits := 0
	for _, k := range trace {
		if c.lookup(0, k, []int{rng.Intn(radixCfg.Vocab), rng.Intn(radixCfg.Vocab)}) {
			hits++
		}
	}
	st := c.r.Stats()
	t.Logf("%d of %d lookups hit; %+v", hits, len(trace), st)
	if min := int(math.Ceil(0.78 * float64(len(trace)))); hits < min {
		t.Fatalf("%d of %d lookups hit, want >= %d", hits, len(trace), min)
	}
	if st.Evictions == 0 || st.AdmissionRejects == 0 {
		t.Fatalf("the trace neither evicted nor refused anything: %+v", st)
	}
}

// TestRadixEqualHeatIsLRU pins the tie-break: under a uniform round-
// robin over five prompts and four root slots no prompt is ever hotter
// than another, so every lookup misses and every insert evicts the
// least recently used root — the victim sequence recorded at PR 23.
func TestRadixEqualHeatIsLRU(t *testing.T) {
	c := newRetention(t, 4*tracePrefixLen)
	want := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0}
	var victims []int
	for i := 0; i < 20; i++ {
		before := c.resident(0, 5)
		if c.lookup(0, i%5, nil) {
			t.Fatalf("lookup %d hit; round-robin over one slot too few never does", i)
		}
		after := c.resident(0, 5)
		for _, k := range before {
			if !slices.Contains(after, k) {
				victims = append(victims, k)
			}
		}
	}
	if !slices.Equal(victims, want) {
		t.Fatalf("victims %v, want the LRU order %v", victims, want)
	}
	if st := c.r.Stats(); st.RootEvictions != int64(len(want)) || st.AdmissionRejects != 0 {
		t.Fatalf("%+v, want %d root evictions and no refusal", st, len(want))
	}
}

// TestRadixPopularityShift pins the halving: after ten and a half
// windows on prompts 0 and 1 the traffic moves to 2 and 3, which must
// both be resident within two windows (their ghost counts climb while
// the old roots' halve; without aging the old counts would take ten
// windows to match). Until then their inserts are refused, not copied
// and evicted.
func TestRadixPopularityShift(t *testing.T) {
	const slots = 2
	c := newRetention(t, slots*tracePrefixLen)
	window := heatWindow * slots // lookups between halvings
	for i := 0; i < 10*window+window/2; i++ {
		c.lookup(0, i%2, nil)
	}
	if got := c.resident(0, 4); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("resident %v after the first phase, want [0 1]", got)
	}
	inserted := c.r.Stats().InsertedRows
	shifted := -1
	for i := 0; i < 2*window && shifted < 0; i++ {
		c.lookup(0, 2+i%2, nil)
		if slices.Equal(c.resident(0, 4), []int{2, 3}) {
			shifted = i + 1
		}
	}
	st := c.r.Stats()
	t.Logf("new hot set resident after %d lookups (window %d); %+v", shifted, window, st)
	if shifted < 0 {
		t.Fatalf("prompts 2 and 3 not resident %d lookups after the shift: %v", 2*window, c.resident(0, 4))
	}
	if st.AdmissionRejects == 0 || st.InsertedRows != inserted+2*tracePrefixLen {
		t.Fatalf("%+v: the shift must copy each new root once and refuse it before", st)
	}
}

// TestRadixGhostTableBounded floods the cache with 10 000 one-off
// prompts: the ghost table stays within 2*heatWindow counts per root
// the budget can hold, and a resident hot prompt keeps hitting.
func TestRadixGhostTableBounded(t *testing.T) {
	const slots = 2
	c := newRetention(t, slots*tracePrefixLen)
	for i := 0; i < 8; i++ {
		c.lookup(0, 0, nil)
	}
	bound := 2 * heatWindow * slots
	peak := 0
	oneOff := make([]int, tracePrefixLen)
	for i := 0; i < 10000; i++ {
		for j, v := 0, i; j < len(oneOff); j, v = j+1, v/radixCfg.Vocab {
			oneOff[j] = v % radixCfg.Vocab
		}
		oneOff[len(oneOff)-1] = radixCfg.Vocab // never one of radixPrefixes
		if c.r.Match(0, oneOff, nil) != nil {
			t.Fatalf("one-off prompt %d hit", i)
		}
		if i%8 == 0 && !c.lookup(0, 0, nil) {
			t.Fatalf("the hot prompt missed during the flood (one-off %d)", i)
		}
		c.r.mu.Lock()
		peak = max(peak, len(c.r.ghosts))
		c.r.mu.Unlock()
	}
	t.Logf("ghost table peaked at %d counts, bound %d", peak, bound)
	if peak > bound {
		t.Fatalf("ghost table reached %d counts, bound %d", peak, bound)
	}
}

// TestRadixLevelSwitch pins the level rule: ghost counts ignore the
// level, so a prompt hot at level 0 is admitted on its first miss at
// level 1 — here over its own level-0 copy, the coldest root — while a
// cold prompt at level 1 is refused and the hot rows stay.
func TestRadixLevelSwitch(t *testing.T) {
	c := newRetention(t, 2*tracePrefixLen)
	for i := 0; i < 6; i++ {
		c.lookup(0, 0, nil)
	}
	for i := 0; i < 8; i++ {
		c.lookup(0, 1, nil)
	}
	if c.lookup(1, 0, nil) {
		t.Fatal("level 1 lookup hit level 0 rows")
	}
	if l0, l1 := c.resident(0, 3), c.resident(1, 3); !slices.Equal(l0, []int{1}) || !slices.Equal(l1, []int{0}) {
		t.Fatalf("after the hot prompt's first miss at level 1: level 0 holds %v, level 1 %v; want [1] and [0]", l0, l1)
	}
	if !c.lookup(1, 0, nil) {
		t.Fatal("the hot prompt's second lookup at level 1 missed")
	}
	rejects := c.r.Stats().AdmissionRejects
	if c.lookup(1, 2, nil) {
		t.Fatal("a prompt never inserted hit")
	}
	if l0, l1 := c.resident(0, 3), c.resident(1, 3); !slices.Equal(l0, []int{1}) || !slices.Equal(l1, []int{0}) {
		t.Fatalf("a cold prompt at level 1 displaced hot rows: level 0 holds %v, level 1 %v", l0, l1)
	}
	if got := c.r.Stats().AdmissionRejects; got != rejects+1 {
		t.Fatalf("%d admission rejects, want %d", got, rejects+1)
	}
}

// TestRadixAdmissionBeforeExport is the regression test of the insert
// that copied rows it could not keep: with a budget below one prefix
// every Insert used to export the root, the cross span and the suffix
// leaf and evict all three in the same call. Now it copies nothing; a
// budget that holds the root but not the leaf copies the root alone.
func TestRadixAdmissionBeforeExport(t *testing.T) {
	for _, tc := range []struct {
		capRows, wantRows int
		wantRejects       int64
	}{
		{tracePrefixLen - 2, 0, 3},              // the root never fits
		{tracePrefixLen + 1, tracePrefixLen, 3}, // the root fits, no 2-row leaf does
	} {
		c := newRetention(t, tc.capRows)
		for i := 0; i < 3; i++ {
			c.lookup(0, 0, []int{i, i + 1})
		}
		st := c.r.Stats()
		if st.InsertedRows != int64(tc.wantRows) || st.UsedRows != tc.wantRows ||
			st.Evictions != 0 || st.AdmissionRejects != tc.wantRejects {
			t.Fatalf("budget %d: %+v, want %d rows inserted and held, no eviction, %d refusals",
				tc.capRows, st, tc.wantRows, tc.wantRejects)
		}
	}
}
