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

// radixCfg is deliberately tiny: a narrow vocabulary makes random
// suffixes collide, so the same prompt is inserted under many suffixes.
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

// checkRadixInvariants checks under the lock the invariants every
// operation must preserve: each entry holds a snapshot at exactly one
// self row per prompt token, accounted rows equal the sum of the
// entries' rows, refcounts are never negative and — when the caller
// holds no hits — all zero.
func checkRadixInvariants(t *testing.T, r *Radix, pinned bool) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := 0
	for key, e := range r.entries {
		if e.st == nil {
			t.Fatal("entry without a snapshot")
		}
		if want := len(key)/8 - 1; e.st.Pos() != want {
			t.Fatalf("entry owns %d rows for a %d-token prompt", e.st.Pos(), want)
		}
		if e.refs < 0 {
			t.Fatalf("negative refcount %d", e.refs)
		}
		if !pinned && e.refs != 0 {
			t.Fatalf("refcount %d with no outstanding hits", e.refs)
		}
		rows += e.st.Pos()
	}
	if rows != r.used {
		t.Fatalf("accounted %d rows, entries hold %d", r.used, rows)
	}
}

// cached reports whether the cache holds an entry for (level, memory),
// read straight from the map: what a Match must agree with.
func cached(r *Radix, level int, memory []int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[entryKey(level, memory)] != nil
}

// verifyHit loads a pinned hit into a scratch state and checks the
// rows bit-equal a fresh prefill of the prompt alone — the cache
// soundness property: a hit is indistinguishable from recomputing.
func verifyHit(t *testing.T, m *transformer.LMModel, h *Hit, fresh *freshKV, pi int) {
	t.Helper()
	st := m.NewDecodeState()
	defer st.Reset()
	h.Load(st)
	if st.Pos() != h.Rows() || h.Rows() != len(radixPrefixes[pi]) {
		t.Fatalf("hit loaded %d rows, reported %d, prompt %d", st.Pos(), h.Rows(), len(radixPrefixes[pi]))
	}
	if !st.Equal(fresh.state(pi, nil)) {
		t.Fatalf("hit rows differ from a fresh prefill (prefix %d)", pi)
	}
}

// TestRadixProperty drives random insert/match/evict sequences and
// re-checks the cache properties after every operation: the invariants
// hold, the budget holds while nothing is pinned, a match hits exactly
// when the prompt is cached, and every hit's rows are bit-equal to a
// fresh prefill of the prompt.
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
// A state loaded from a hit shares the entry's pages and may outlive the
// entry's eviction: it must still equal a fresh prefill of the prompt,
// and decode its next token as one, without writing through to the
// states the entries were inserted from. Once every entry is evicted and
// every state Reset, the KV pool has every page back.
func runRadixScript(t *testing.T, script []byte) {
	_, pagesOut := transformer.KVPages()
	m := newRadixModel(t)
	const capRows = 8 // two of the four (level, prompt) entries: inserts routinely evict
	r := NewRadix(capRows)
	fresh := &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}
	var held []*Hit
	type source struct {
		pi     int
		suffix []int
	}
	var inserted []source
	var loaded []loadedState

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
		case 0, 1: // insert from a state that also holds the suffix rows
			r.Insert(level, radixPrefixes[pi], suffix, fresh.state(pi, suffix))
			inserted = append(inserted, source{pi, suffix})
		case 2: // match, verify, release
			want := cached(r, level, radixPrefixes[pi])
			h := r.Match(level, radixPrefixes[pi], suffix)
			if (h != nil) != want {
				t.Fatalf("match hit=%v but cached=%v", h != nil, want)
			}
			if h != nil {
				verifyHit(t, m, h, fresh, pi)
				h.Release()
				// counts never decide what a match returns: halve every
				// one of them and the same lookup hits the same rows
				r.mu.Lock()
				r.age()
				r.mu.Unlock()
				if h = r.Match(level, radixPrefixes[pi], suffix); h == nil {
					t.Fatal("after aging the counts the lookup missed")
				}
				verifyHit(t, m, h, fresh, pi)
				h.Release()
			}
		case 3: // match and hold the pin (evictions must respect it), and
			// load the hit into a state that outlives the pin
			if h := r.Match(level, radixPrefixes[pi], suffix); h != nil {
				ls := loadedState{st: m.NewDecodeState(), pi: pi, tok: suffix[0]}
				h.Load(ls.st)
				if loaded = append(loaded, ls); len(loaded) > 3 {
					loaded[0].check(t, m, fresh)
					loaded = loaded[1:]
				}
				held = append(held, h)
				if len(held) > 3 {
					held[0].Release()
					held = held[1:]
				}
			}
		}
		checkRadixInvariants(t, r, len(held) > 0)
		// admission counts pinned rows as unfreeable, so the budget holds
		// even while hits are held
		if used := r.UsedRows(); used > capRows {
			t.Fatalf("cache holds %d rows over the %d budget", used, capRows)
		}
	}
	// pinned spans must still verify after all the eviction churn above
	for _, h := range held {
		st := m.NewDecodeState()
		h.Load(st)
		if st.Pos() != h.Rows() {
			t.Fatalf("held hit loads %d rows, want %d", st.Pos(), h.Rows())
		}
		st.Reset()
		h.Release()
	}
	checkRadixInvariants(t, r, false)

	r.mu.Lock()
	for key, e := range r.entries {
		r.evict(key, e)
	}
	r.mu.Unlock()
	for _, ls := range loaded {
		ls.check(t, m, fresh)
	}
	for _, src := range inserted {
		again := splitPrefill(m, radixPrefixes[src.pi], src.suffix)
		if !fresh.state(src.pi, src.suffix).Equal(again) {
			t.Fatalf("prefix %d suffix %v: a loaded state's decode wrote through to the state its entry was inserted from", src.pi, src.suffix)
		}
		again.Reset()
	}
	for _, st := range fresh.cache {
		st.Reset()
	}
	if _, out := transformer.KVPages(); out != pagesOut {
		t.Fatalf("%d KV pages out once every entry was evicted and every state Reset, %d before", out, pagesOut)
	}
}

// loadedState is a hit of prompt pi loaded into a state of its own,
// which decodes tok when checked.
type loadedState struct {
	st  *transformer.DecodeState
	pi  int
	tok int
}

// check holds the loaded state to a fresh prefill of its prompt, feeds it
// its token and holds it to a fresh split prefill of the prompt and that
// token (a chunk of one row is bit-identical to the step), then Resets
// it.
func (ls loadedState) check(t *testing.T, m *transformer.LMModel, fresh *freshKV) {
	t.Helper()
	if !ls.st.Equal(fresh.state(ls.pi, nil)) {
		t.Fatalf("prefix %d: a loaded state differs from a fresh prefill", ls.pi)
	}
	m.DecodeStep([]*transformer.DecodeState{ls.st}, []int{ls.tok})
	if !ls.st.Equal(fresh.state(ls.pi, []int{ls.tok})) {
		t.Fatalf("prefix %d: a loaded state decoded %d unlike a fresh prefill", ls.pi, ls.tok)
	}
	ls.st.Reset()
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
// held hit's entry survives the insert of a hotter prompt that would
// evict it (the insert is refused instead), and release makes it
// evictable.
func TestRadixPinBlocksEviction(t *testing.T) {
	m := newRadixModel(t)
	fresh := &freshKV{m: m, cache: map[string]*transformer.DecodeState{}}
	r := NewRadix(tracePrefixLen) // one prompt's rows
	cold, hot := tracePrefix(0), tracePrefix(1)
	r.Insert(0, radixPrefixes[cold], nil, fresh.state(cold, nil))

	h := r.Match(0, radixPrefixes[cold], nil)
	if h == nil {
		t.Fatal("setup: the inserted prompt missed")
	}
	// the hot prompt's misses lift its ghost count above the pinned
	// entry's heat: unpinned, the pinned entry would be its victim
	for i := 0; i < 3; i++ {
		if r.Match(0, radixPrefixes[hot], nil) != nil {
			t.Fatal("a prompt never inserted hit")
		}
	}
	r.Insert(0, radixPrefixes[hot], nil, fresh.state(hot, nil))
	if !cached(r, 0, radixPrefixes[cold]) || cached(r, 0, radixPrefixes[hot]) {
		t.Fatal("the insert evicted a pinned entry")
	}
	if st := r.Stats(); st.Evictions != 0 || st.AdmissionRejects != 1 {
		t.Fatalf("%+v, want the insert refused and nothing evicted", st)
	}
	verifyHit(t, m, h, fresh, cold)
	h.Release()
	checkRadixInvariants(t, r, false)

	// after release the same insert evicts it
	r.Insert(0, radixPrefixes[hot], nil, fresh.state(hot, nil))
	if cached(r, 0, radixPrefixes[cold]) || !cached(r, 0, radixPrefixes[hot]) {
		t.Fatal("the released entry was not reclaimed for the hotter prompt")
	}
	if st := r.Stats(); st.Evictions != 1 || st.UsedRows != tracePrefixLen {
		t.Fatalf("%+v, want one eviction and one prompt held", st)
	}
	checkRadixInvariants(t, r, false)
}

// TestRadixCachesPromptRowsOnly: an insert from a state holding prompt
// and suffix copies the prompt's rows alone, and a match with the same
// suffix loads exactly those rows, bit-equal to a fresh prefill of the
// prompt.
func TestRadixCachesPromptRowsOnly(t *testing.T) {
	m := newRadixModel(t)
	r := NewRadix(0)
	prefix := radixPrefixes[0]
	suffix := []int{5, 6, 7, 8}
	r.Insert(0, prefix, suffix, splitPrefill(m, prefix, suffix))
	if st := r.Stats(); r.UsedRows() != len(prefix) || st.InsertedRows != int64(len(prefix)) {
		t.Fatalf("%+v: want the %d prompt rows alone cached", st, len(prefix))
	}
	h := r.Match(0, prefix, suffix)
	if h == nil {
		t.Fatal("the inserted prompt missed")
	}
	defer h.Release()
	if h.Rows() != len(prefix) {
		t.Fatalf("hit covers %d rows, want the prompt's %d", h.Rows(), len(prefix))
	}
	st := m.NewDecodeState()
	h.Load(st)
	if !st.Equal(splitPrefill(m, prefix, nil)) {
		t.Fatal("loaded rows differ from a fresh prefill of the prompt")
	}
}

// TestRadixLevelIsolation pins that entries are keyed by level: rows
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
// of the prompt — concurrency must never mix rows between entries.
func TestRadixConcurrentStress(t *testing.T) {
	m := newRadixModel(t)
	const workers = 8
	const itersPer = 60

	// precompute the workload single-threaded: the model is not
	// goroutine-safe, but DecodeState reads and copies are
	type item struct {
		pi     int
		suffix []int
		st     *transformer.DecodeState
		prefix *transformer.DecodeState // the prompt's rows alone
	}
	rng := rand.New(rand.NewSource(11))
	var pool []item
	for i := 0; i < 12; i++ {
		pi := i % scriptPrefixes
		suffix := make([]int, 1+rng.Intn(5))
		for j := range suffix {
			suffix[j] = rng.Intn(radixCfg.Vocab)
		}
		st := splitPrefill(m, radixPrefixes[pi], suffix)
		pool = append(pool, item{
			pi: pi, suffix: suffix, st: st,
			prefix: st.Snapshot(len(radixPrefixes[pi])),
		})
	}
	scratch := make([]*transformer.DecodeState, workers)
	for w := range scratch {
		scratch[w] = m.NewDecodeState()
	}

	r := NewRadix(4) // one prompt at a time: eviction races with pinned loads
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
				rows := e.prefix.Pos()
				if st.Pos() != rows || h.Rows() != rows {
					errs <- fmt.Errorf("worker %d: loaded %d rows, reported %d, want %d", w, st.Pos(), h.Rows(), rows)
				} else if !st.Equal(e.prefix) {
					errs <- fmt.Errorf("worker %d: loaded rows differ from reference", w)
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

// lookup is one split request for prompt k: match the prompt, then
// insert from the state the request computed (prompt plus suffix). It
// reports whether the prompt's rows were cached.
func (c *retention) lookup(level, k int, suffix []int) bool {
	c.t.Helper()
	pi := tracePrefix(k)
	h := c.r.Match(level, radixPrefixes[pi], nil)
	if h != nil {
		verifyHit(c.t, c.m, h, c.fresh, pi)
		h.Release()
	}
	c.r.Insert(level, radixPrefixes[pi], nil, c.fresh.state(pi, suffix))
	checkRadixInvariants(c.t, c.r, false)
	if used := c.r.UsedRows(); used > c.r.capRows {
		c.t.Fatalf("cache holds %d rows over the %d budget", used, c.r.capRows)
	}
	return h != nil
}

// resident lists the prompts among the first n cached at level.
func (c *retention) resident(level, n int) []int {
	var ks []int
	for k := 0; k < n; k++ {
		if cached(c.r, level, radixPrefixes[tracePrefix(k)]) {
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
// 2-token suffix — through a budget of four prompts plus six spare
// rows. The heat order keeps the hot prompts and turns the rare ones
// away: 167 of 208 lookups hit (keeping the top four from their second
// arrival on would hit 173). Recency alone lets the rare prompts push
// hot ones out again and again: 99 of 208 on this same trace when the
// order was LRU.
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
// robin over five prompts and four slots no prompt is ever hotter than
// another, so every lookup misses and every insert evicts the least
// recently used prompt — the victim sequence recorded when the order
// was plain LRU.
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
	if st := c.r.Stats(); st.Evictions != int64(len(want)) || st.AdmissionRejects != 0 {
		t.Fatalf("%+v, want %d evictions and no refusal", st, len(want))
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
// that copied rows it could not keep: with a budget below one prompt
// every Insert used to export the rows and the cross span and evict
// both in the same call. Now it copies nothing and counts a refusal; a
// budget that holds the prompt copies it once, and the suffix rows the
// state also holds are never a candidate.
func TestRadixAdmissionBeforeExport(t *testing.T) {
	for _, tc := range []struct {
		capRows, wantRows int
		wantRejects       int64
	}{
		{tracePrefixLen - 2, 0, 3},              // the prompt never fits
		{tracePrefixLen + 1, tracePrefixLen, 0}, // the prompt fits
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
