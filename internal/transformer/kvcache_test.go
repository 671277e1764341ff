package transformer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"rt3/internal/mat"
)

// kvModel is the plain row-major picture of what a KVCache must hold:
// the rows appended and not yet truncated, in order.
type kvModel struct {
	dim  int
	k, v []float64
}

func (m *kvModel) rows() int { return len(m.k) / m.dim }

func (m *kvModel) append(k, v []float64) {
	m.k = append(m.k, k...)
	m.v = append(m.v, v...)
}

func (m *kvModel) truncate(rows int) {
	m.k, m.v = m.k[:rows*m.dim], m.v[:rows*m.dim]
}

// randRows draws n packed rows of keys and values; every float is
// distinct with overwhelming probability, so a misplaced one shows.
func randRows(rng *rand.Rand, n, dim int) (k, v []float64) {
	k, v = make([]float64, n*dim), make([]float64, n*dim)
	for i := range k {
		k[i], v[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	return k, v
}

// appendPacked appends the packed row-major rows k and v to the cache
// through appendRows.
func appendPacked(c *KVCache, k, v []float64) {
	n := len(k) / c.dim
	c.appendRows(mat.FromSlice(n, c.dim, k), mat.FromSlice(n, c.dim, v), 0, n)
}

// checkKVCache holds the cache to the model: exactly the pages its rows
// need, each one page wide, and in them the feature-major keys and the
// row-major values of every row at the places the attention core
// indexes directly.
func checkKVCache(t *testing.T, c *KVCache, m *kvModel, what string) {
	t.Helper()
	if c.rows != m.rows() {
		t.Fatalf("%s: cache holds %d rows, model %d", what, c.rows, m.rows())
	}
	if want := (c.rows + kvPage - 1) / kvPage; len(c.pages) != want || len(c.holds) != want {
		t.Fatalf("%s: %d pages and %d holder counts under %d rows, want %d", what, len(c.pages), len(c.holds), c.rows, want)
	}
	for i, pg := range c.pages {
		if len(pg) != 2*c.dim*kvPage {
			t.Fatalf("%s: page %d holds %d floats at dim %d", what, i, len(pg), c.dim)
		}
	}
	for j := 0; j < m.rows(); j++ {
		pg, r := c.pages[j/kvPage], j%kvPage
		for f := 0; f < m.dim; f++ {
			if got := pg[f*kvPage+r]; got != m.k[j*m.dim+f] {
				t.Fatalf("%s: key row %d feature %d = %v, model %v", what, j, f, got, m.k[j*m.dim+f])
			}
			if got := pg[m.dim*kvPage+r*m.dim+f]; got != m.v[j*m.dim+f] {
				t.Fatalf("%s: value row %d feature %d = %v, model %v", what, j, f, got, m.v[j*m.dim+f])
			}
		}
	}
}

// poisonFreePages fills every page the pool holds with NaN, so a page it
// hands out again carries no zeros a stale lane could hide behind.
func poisonFreePages() {
	var free []kvPageBuf
	for p := kvPages.Get(noPage); p.pg != nil; p = kvPages.Get(noPage) {
		free = append(free, p)
	}
	for _, p := range free {
		for i := range p.pg {
			p.pg[i] = math.NaN()
		}
		kvPages.Put(p)
	}
}

// TestKVCacheAppendAcrossPagesPreservesRows: appends that start off a
// score-block edge, end on a page edge and straddle several pages place
// every row where the layout says, over pages the pool poisoned.
func TestKVCacheAppendAcrossPagesPreservesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	const dim = 6
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	poisonFreePages()
	// 5 and 5+first rows end inside the first page, the third append at
	// its edge
	first := min(13, kvPage/2)
	for _, add := range []int{5, first, kvPage - 5 - first, 1, 2*kvPage + 3, kvPage - 3, 1} {
		k, v := randRows(rng, add, dim)
		appendPacked(c, k, v)
		m.append(k, v)
		checkKVCache(t, c, m, fmt.Sprintf("after +%d rows", add))
	}
	c.truncate(0)
}

// TestKVCacheTruncateThenAppend: rows appended after a rollback land on
// the rolled-back positions, not behind the stale ones, and a rollback
// below a page edge gives the pages past it back.
func TestKVCacheTruncateThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	const dim = 5
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	k, v := randRows(rng, kvPage+21, dim)
	appendPacked(c, k, v)
	m.append(k, v)
	for _, to := range []int{kvPage + 17, kvPage, kvPage - 1, 16, 3, 0} {
		c.truncate(to)
		m.truncate(to)
		checkKVCache(t, c, m, fmt.Sprintf("truncated to %d", to))
		k, v := randRows(rng, 2, dim)
		appendPacked(c, k, v)
		m.append(k, v)
		checkKVCache(t, c, m, fmt.Sprintf("truncated to %d, +2 rows", to))
	}
}

// TestKVCacheAppendRowsOfPackedBatch: appendRows takes a row range out
// of a wider packed projection.
func TestKVCacheAppendRowsOfPackedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	const dim = 4
	k, v := mat.New(9, dim), mat.New(9, dim)
	k.Randomize(rng, 1)
	v.Randomize(rng, 1)
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	for _, r := range [][2]int{{2, 7}, {0, 1}, {8, 9}} {
		c.appendRows(k, v, r[0], r[1])
		m.append(k.Data[r[0]*dim:r[1]*dim], v.Data[r[0]*dim:r[1]*dim])
		checkKVCache(t, c, m, fmt.Sprintf("rows [%d, %d)", r[0], r[1]))
	}
}

// kvTestModel is a two-decoder-layer LM small enough to prefill in a
// test and wide enough (head dim 4, 2 heads) to have a head offset.
func kvTestModel(reuse bool) *LMModel {
	m := NewLMModel(Config{Vocab: 30, Dim: 8, Heads: 2, FFHidden: 12, EncLayers: 1, DecLayers: 2, SeqLen: 160}, rand.New(rand.NewSource(164)))
	m.SetBufferReuse(reuse)
	return m
}

func kvTestPrompt(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (3 + 7*i) % 30
	}
	return p
}

// TestKVSpanRaggedExportLoadRoundTrip snapshots a 101-row prefill at row
// counts off the 16-row block edge and at and around the page edge, and
// copies each into a fresh state. The copy equals the same prefill
// rewound to those rows with TruncateTo, and snapshot -> copy ->
// snapshot is the identity.
func TestKVSpanRaggedExportLoadRoundTrip(t *testing.T) {
	m := kvTestModel(true)
	prefill := func() *DecodeState {
		st := m.NewDecodeState()
		m.Prefill([]*DecodeState{st}, [][]int{kvTestPrompt(101)})
		return st
	}
	st := prefill()
	for _, rows := range []int{101, 65, 64, 63, 16, 19, 17, 33, 5, 1, 0} {
		sp := st.Snapshot(rows)
		loaded := m.NewDecodeState()
		loaded.CopyFrom(sp)
		ref := prefill()
		ref.TruncateTo(rows)
		if loaded.Pos() != rows || !loaded.Equal(ref) {
			t.Fatalf("%d rows: the copy differs from the prefill rewound to %d rows", rows, rows)
		}
		if !loaded.Snapshot(loaded.Pos()).Equal(sp) {
			t.Fatalf("%d rows: snapshot -> copy -> snapshot is not the identity", rows)
		}
	}
}

// TestDecodeStateSnapshotCopyFrom pins the prefix-cache storage
// contract. A snapshot of the first rows of a 101-row prefill, at row
// counts that start, straddle and end score blocks and pages, holds them
// in the fewest pages, and is copied into a fresh state, into a larger
// one holding more pages with NaN spare lanes, and into a smaller one.
// Each copy equals the snapshot, copies again (its pages now held)
// without allocating, and feeds the next token to the logits of the
// source rewound to those rows, at tolerance 0; neither the snapshot nor
// the source sees the copies' writes. Equal ignores spare lanes and
// catches one flipped bit, on a state that shares no page.
func TestDecodeStateSnapshotCopyFrom(t *testing.T) {
	m := kvTestModel(true)
	const promptLen = 101
	prompt := kvTestPrompt(promptLen)
	prefill := func(p []int) *DecodeState {
		st := m.NewDecodeState()
		m.Prefill([]*DecodeState{st}, [][]int{p})
		return st
	}
	// next feeds one token: a step, or at Pos 0 the one-token chunk
	next := func(st *DecodeState) *mat.Matrix {
		if st.Pos() == 0 {
			return m.DecodeChunk([]*DecodeState{st}, [][]int{{9}})[0].Clone()
		}
		return m.DecodeStep([]*DecodeState{st}, []int{9}).Clone()
	}
	other := make([]int, 140)
	for i := range other {
		other[i] = (11 + 5*i) % 30
	}
	pages := func(rows int) int { return (rows + kvPage - 1) / kvPage }
	src := prefill(prompt)
	for _, rows := range []int{0, 1, 15, 16, 17, 33, 63, 64, 65, promptLen} {
		snap := src.Snapshot(rows)
		for li := range snap.self {
			s, c := &snap.self[li], &snap.cross[li]
			if snap.Pos() != rows || len(s.pages) != pages(rows) || len(c.pages) != pages(promptLen) {
				t.Fatalf("%d rows, layer %d: snapshot at Pos %d holds %d self / %d memory pages", rows, li, snap.Pos(), len(s.pages), len(c.pages))
			}
		}
		ref := prefill(prompt)
		ref.TruncateTo(rows)
		want := next(ref)

		larger := prefill(other)
		poisonSpareLanes(larger)
		poisonFreePages()
		for _, target := range []struct {
			name string
			st   *DecodeState
		}{{"fresh", m.NewDecodeState()}, {"larger", larger}, {"smaller", prefill(other[:3])}} {
			what := fmt.Sprintf("%d rows into a %s state", rows, target.name)
			target.st.CopyFrom(snap)
			if !target.st.Equal(snap) || !snap.Equal(target.st) {
				t.Fatalf("%s: the copy differs from the snapshot", what)
			}
			if allocs := testing.AllocsPerRun(10, func() { target.st.CopyFrom(snap) }); allocs != 0 {
				t.Fatalf("%s: %v allocs per CopyFrom into the pages it holds, want 0", what, allocs)
			}
			if got := next(target.st); !mat.Equal(got, want, 0) {
				t.Fatalf("%s: the next token's logits differ from the source's", what)
			}
		}
		if !snap.Equal(src.Snapshot(rows)) || !src.Equal(prefill(prompt)) {
			t.Fatalf("%d rows: decoding a copy wrote through to the snapshot or its source", rows)
		}

		// a snapshot shares its pages, so the poison and the flipped bits
		// go into a prefill of its own, rewound to the same rows
		cp := prefill(prompt)
		cp.TruncateTo(rows)
		poisonSpareLanes(cp)
		if !cp.Equal(snap) {
			t.Fatalf("%d rows: Equal read the poisoned spare lanes", rows)
		}
		// the last key and the first value of the memory, and the last
		// key and value of the self rows
		at := func(c *KVCache, j, f int, value bool) *float64 {
			if value {
				return &c.pages[j/kvPage][(kvPage+j%kvPage)*c.dim+f]
			}
			return &c.pages[j/kvPage][f*kvPage+j%kvPage]
		}
		mem := &cp.cross[1]
		below := []*float64{at(mem, mem.rows-1, mem.dim-1, false), at(mem, 0, 0, true)}
		if rows > 0 {
			s := &cp.self[1]
			below = append(below, at(s, rows-1, s.dim-1, false), at(s, rows-1, s.dim-1, true))
		}
		for i, x := range below {
			old := *x
			*x = math.Float64frombits(math.Float64bits(old) ^ 1)
			if cp.Equal(snap) || snap.Equal(cp) {
				t.Fatalf("%d rows: Equal missed a flipped bit (element %d)", rows, i)
			}
			*x = old
		}
	}
}

// TestSnapshotSharedCopyOnWrite pins the sharing lifetime of a prefix-
// cache snapshot. A 150-row prompt's snapshot holds the self and the
// memory pages of 150 rows in each of two layers (12 pages at 64 rows a
// page); three states copied from it take no page, and each one's first
// step copies only the partial self page of each layer, so the pages
// held rise by 2 per state, not by the snapshot's count; the snapshot's
// Reset gives back only the 2 pages no state shares.
// Every step's logits and every state equal an uncached prefill fed the
// same tokens at tolerance 0, also after the snapshot is Reset under the
// decoding states; two goroutines, each with its own model, load and
// decode from one snapshot at once while it is Reset; and once every
// state is Reset the pages held are back at the start.
func TestSnapshotSharedCopyOnWrite(t *testing.T) {
	const promptLen, steps, copies = 150, 6, 3
	// the snapshot's pages: a self and a memory list of 150 rows per layer,
	// the last self page partial
	const snapPages = 2 * 2 * ((promptLen + kvPage - 1) / kvPage)
	if promptLen%kvPage == 0 {
		t.Fatalf("a %d-row prompt fills its last %d-row page: no partial self page to copy", promptLen, kvPage)
	}
	prompt := kvTestPrompt(promptLen)
	tokens := func(i int) []int { return []int{(5 + 7*i) % 30} }
	// want[i] is step i's logits after an uncached prefill, ref the state
	// after every step
	m := kvTestModel(true)
	ref := m.NewDecodeState()
	m.Prefill([]*DecodeState{ref}, [][]int{prompt})
	var want []*mat.Matrix
	for i := 0; i < steps; i++ {
		want = append(want, m.DecodeStep([]*DecodeState{ref}, tokens(i)).Clone())
	}
	step := func(m *LMModel, st *DecodeState, i int) error {
		if got := m.DecodeStep([]*DecodeState{st}, tokens(i)); !mat.Equal(got, want[i], 0) {
			return fmt.Errorf("step %d: the logits differ from the uncached prefill's", i)
		}
		return nil
	}

	_, start := KVPages()
	src := m.NewDecodeState()
	m.Prefill([]*DecodeState{src}, [][]int{prompt})
	snap := src.Snapshot(promptLen)
	src.Reset()
	held := func() int64 { _, out := KVPages(); return out - start }
	if got := held(); got != snapPages {
		t.Fatalf("the snapshot holds %d pages alone, want %d", got, snapPages)
	}
	states := make([]*DecodeState, copies)
	for i := range states {
		states[i] = m.NewDecodeState()
		states[i].CopyFrom(snap)
	}
	if got := held(); got != snapPages {
		t.Fatalf("%d pages held after %d copies, want the snapshot's %d", got, copies, snapPages)
	}
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			// the states keep the pages they share; only the snapshot's
			// partial self pages go back
			snap.Reset()
			if got := held(); got != snapPages-2+2*copies {
				t.Fatalf("%d pages held after the snapshot's Reset, want %d", got, snapPages-2+2*copies)
			}
		}
		for s, st := range states {
			if err := step(m, st, i); err != nil {
				t.Fatalf("state %d: %v", s, err)
			}
		}
		if got := held(); i == 0 && got != snapPages+2*copies {
			t.Fatalf("%d pages held after every state's first step, want %d (one per self layer per state)", got, snapPages+2*copies)
		}
	}
	for s, st := range states {
		if !st.Equal(ref) {
			t.Fatalf("state %d differs from the uncached prefill's", s)
		}
		st.Reset()
	}
	if got := held(); got != 0 {
		t.Fatalf("%d pages held once every state was Reset", got)
	}

	// two replicas load one snapshot and decode at once, and the
	// snapshot is Reset (evicted) while their first writes copy its pages
	m.Prefill([]*DecodeState{src}, [][]int{prompt})
	snap = src.Snapshot(promptLen)
	src.Reset()
	var wg, loaded sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		loaded.Add(1)
		go func(g int) {
			defer wg.Done()
			m := kvTestModel(true)
			st := m.NewDecodeState()
			st.CopyFrom(snap)
			loaded.Done()
			for i := 0; i < steps && errs[g] == nil; i++ {
				errs[g] = step(m, st, i)
			}
			if errs[g] == nil && !st.Equal(ref) {
				errs[g] = fmt.Errorf("the state differs from the uncached prefill's")
			}
			st.Reset()
		}(g)
	}
	loaded.Wait()
	snap.Reset()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := held(); got != 0 {
		t.Fatalf("%d pages held once both goroutines' states and the snapshot were Reset", got)
	}
	ref.Reset()
}

// poisonSpareLanes overwrites every key and value row past the rows held
// in the last page of every self- and cross-attention cache of the state
// with NaN.
func poisonSpareLanes(st *DecodeState) {
	for _, caches := range [][]KVCache{st.self, st.cross} {
		for i := range caches {
			c := &caches[i]
			if c.rows%kvPage == 0 {
				continue
			}
			pg := c.pages[len(c.pages)-1]
			for j := c.rows % kvPage; j < kvPage; j++ {
				for f := 0; f < c.dim; f++ {
					pg[f*kvPage+j] = math.NaN()
					pg[(kvPage+j)*c.dim+f] = math.NaN()
				}
			}
		}
	}
}

// TestKVCacheSpareLanesNeverReachResults: the score kernel reads whole
// blocks, so it reads key columns past the window — the rest of the last
// page, rows a TruncateTo left behind, whatever a page held when the
// pool handed it out. Poisoning all of them with NaN, and every page the
// pool holds, before the prefill and every step and chunk must not
// change one bit of the logits.
func TestKVCacheSpareLanesNeverReachResults(t *testing.T) {
	run := func(poison bool) []*mat.Matrix {
		m := kvTestModel(false)
		st := m.NewDecodeState()
		states := []*DecodeState{st}
		touch := func() {
			if poison {
				poisonSpareLanes(st)
				poisonFreePages()
			}
		}
		var outs []*mat.Matrix
		touch()
		outs = append(outs, m.Prefill(states, [][]int{kvTestPrompt(61)})[0].Clone())
		for i := 0; i < 6; i++ { // grows through the 64-row page edge
			touch()
			outs = append(outs, m.DecodeStep(states, []int{(5 + i) % 30}).Clone())
		}
		st.TruncateTo(62) // rows 62..66 are now stale, and the second page is back in the pool
		touch()
		outs = append(outs, m.DecodeChunk(states, [][]int{{1, 2, 3}})[0].Clone())
		touch()
		outs = append(outs, m.DecodeStep(states, []int{9}).Clone())
		return outs
	}
	clean, poisoned := run(false), run(true)
	for i := range clean {
		if !mat.Equal(clean[i], poisoned[i], 0) {
			t.Fatalf("output %d changed when the spare key lanes held NaN", i)
		}
		for _, x := range poisoned[i].Data {
			if math.IsNaN(x) {
				t.Fatalf("output %d carries a NaN from the spare key lanes", i)
			}
		}
	}
}

// TestAttendEmptyCacheRejected: a cached step over a cache with no rows
// is rejected by sequence, not by an index panic inside the softmax.
func TestAttendEmptyCacheRejected(t *testing.T) {
	a := NewMultiHeadAttention("attn", 8, 2, rand.New(rand.NewSource(165)))
	full := &KVCache{dim: 8}
	k, v := randRows(rand.New(rand.NewSource(166)), 3, 8)
	appendPacked(full, k, v)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "transformer:") || !strings.Contains(msg, "sequence 1") {
			t.Fatalf("empty cache for sequence 1: got panic %q", msg)
		}
	}()
	a.attendCached(mat.New(2, 8), []*KVCache{full, {dim: 8}}, []int{0, 1, 2}, false)
}

// TestDecodeStepsAcrossPagesAllocationFree: once the pool holds the
// pages, a cache that grows a row per step (no truncation between steps)
// across a page edge allocates nothing — the page comes from the pool,
// and the score scratch is sized by whole pages.
func TestDecodeStepsAcrossPagesAllocationFree(t *testing.T) {
	m := kvTestModel(true)
	st := m.NewDecodeState()
	states := []*DecodeState{st}
	prompt, tok := [][]int{kvTestPrompt(40)}, []int{7}
	m.Prefill(states, prompt)
	for st.Pos() < 2*kvPage {
		m.DecodeStep(states, tok)
	}
	m.Prefill(states, prompt) // resets the state: its pages go back to the pool
	m.DecodeStep(states, tok)
	if allocs := testing.AllocsPerRun(30, func() { m.DecodeStep(states, tok) }); allocs != 0 || st.Pos() <= kvPage {
		t.Fatalf("%v allocs per step up to %d rows, want 0 across the %d-row page edge", allocs, st.Pos(), kvPage)
	}
}

// TestAttentionScratchDroppedWithoutReuse: turning reuse off drops
// the context rows a reusing forward kept, and a forward pass without
// reuse keeps none. (The transposed-key scratch is borrowed per call
// from a free list the block does not own.)
func TestAttentionScratchDroppedWithoutReuse(t *testing.T) {
	a := NewMultiHeadAttention("attn", 8, 2, rand.New(rand.NewSource(167)))
	x, off := mat.New(5, 8), []int{0, 5}
	a.useSlots(newSlots(true))
	a.ForwardBatch(x, x, off, off, false)
	if a.concat == nil {
		t.Fatal("reuse on: no context rows kept")
	}
	a.useSlots(newSlots(false))
	if a.concat != nil {
		t.Fatal("reuse off kept forward scratch")
	}
	a.ForwardBatch(x, x, off, off, false)
	if a.concat != nil {
		t.Fatal("reuse off: context rows kept across calls")
	}
}

// runKVCacheScript interprets an op stream against one cache and its
// row-major model, re-checking the whole layout after every op. Each op
// is 2 bytes: kind and argument. The last copy op 3 made is kept, sharing
// the cache's pages, and must hold its rows through every later append
// and truncate of the cache.
func runKVCacheScript(t *testing.T, script []byte) {
	const dim = 3
	rng := rand.New(rand.NewSource(168))
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	kept, keptM := &KVCache{dim: dim}, &kvModel{dim: dim}
	defer kept.truncate(0)
	for ; len(script) >= 2; script = script[2:] {
		kind, arg := script[0]%5, int(script[1])
		what := fmt.Sprintf("op %d arg %d", kind, arg)
		switch kind {
		case 0: // stale pages: the next page an append takes holds NaN
			poisonFreePages()
		case 1: // append 1..8 rows (the decode step and the chunk)
			k, v := randRows(rng, 1+arg%8, dim)
			appendPacked(c, k, v)
			m.append(k, v)
		case 2: // truncate
			to := arg % (m.rows() + 1)
			c.truncate(to)
			m.truncate(to)
		case 3: // copy rows [0, r) into the kept cache, which shares them
			r := arg % (m.rows() + 1)
			kept.share(c, r)
			keptM = &kvModel{dim: dim, k: slices.Clone(m.k[:r*dim]), v: slices.Clone(m.v[:r*dim])}
		case 4: // copy rows [0, r) out, truncate, and copy them back in
			r := arg % (m.rows() + 1)
			cp := &KVCache{dim: dim}
			cp.share(c, r)
			kept := &kvModel{dim: dim, k: slices.Clone(m.k[:r*dim]), v: slices.Clone(m.v[:r*dim])}
			to := (arg / 3) % (m.rows() + 1)
			c.truncate(to)
			c.share(cp, r)
			cp.truncate(0)
			m = kept
		}
		checkKVCache(t, c, m, what)
		checkKVCache(t, kept, keptM, what+", the kept copy")
	}
}

// TestKVCacheLayoutScripts runs seeded op streams through the fuzz
// target's interpreter.
func TestKVCacheLayoutScripts(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		script := make([]byte, 2*120)
		rand.New(rand.NewSource(seed)).Read(script)
		runKVCacheScript(t, script)
	}
}

// FuzzKVCacheLayout explores append/truncate/copy interleavings of the
// paged feature-major cache, beside a copy sharing its pages and over
// pages the pool may hand out holding NaN, against the row-major model
// (`go test -fuzz=FuzzKVCacheLayout ./internal/transformer`).
func FuzzKVCacheLayout(f *testing.F) {
	f.Add([]byte{1, 4, 0, 40, 1, 7, 3, 9, 2, 3, 1, 0, 4, 5})
	f.Add([]byte{1, 7, 1, 7, 1, 7, 2, 17, 1, 0, 0, 69, 3, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2*80 {
			script = script[:2*80]
		}
		runKVCacheScript(t, script)
	})
}

// TestForwardLeavesEmbeddingBufferUntouched: both stacks read the one
// embedded + positional buffer (the decoder gets no copy of it), which
// holds because no layer writes its input in place. After a full
// forward, a prefill and a DecodeFull the reused gather buffer is bit-
// equal to the embedding it was filled with.
func TestForwardLeavesEmbeddingBufferUntouched(t *testing.T) {
	m := kvTestModel(true)
	seqs := [][]int{kvTestPrompt(9), kvTestPrompt(1), kvTestPrompt(14)}
	flat, off := packIDs(seqs, nil, nil)
	want := kvTestModel(false).Embed.Forward(flat)
	addPositional(want, off, m.Pos, nil)
	buf := m.Embed.Forward(flat) // the buffer every later gather of this shape refills
	check := func(pass string) {
		t.Helper()
		if got := m.Embed.Forward(flat); got != buf {
			t.Fatalf("%s: the gather buffer was replaced, the test observes nothing", pass)
		}
	}
	m.ForwardBatch(seqs)
	if !mat.Equal(buf, want, 0) {
		t.Fatal("ForwardBatch wrote the embedding buffer")
	}
	check("ForwardBatch")
	states := []*DecodeState{m.NewDecodeState(), m.NewDecodeState(), m.NewDecodeState()}
	m.Prefill(states, seqs)
	if !mat.Equal(buf, want, 0) {
		t.Fatal("Prefill wrote the embedding buffer")
	}
	check("Prefill")
	memory, memOff := kvTestModel(false).EncodeBatch(seqs)
	m.DecodeFull(seqs, memory, memOff)
	if !mat.Equal(buf, want, 0) {
		t.Fatal("DecodeFull wrote the embedding buffer")
	}
	check("DecodeFull")
}
