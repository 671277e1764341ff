package transformer

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// checkKVCache holds the cache to the model through both of its read
// paths: exportSpan over every row, and the feature-major placement the
// attention core indexes directly.
func checkKVCache(t *testing.T, c *KVCache, m *kvModel, what string) {
	t.Helper()
	if c.Rows() != m.rows() {
		t.Fatalf("%s: cache holds %d rows, model %d", what, c.Rows(), m.rows())
	}
	if c.capRows%mat.AttendBlock != 0 || c.capRows < c.rows || len(c.k) != c.dim*c.capRows {
		t.Fatalf("%s: capacity %d rows (%d key floats) under %d rows at dim %d", what, c.capRows, len(c.k), c.rows, c.dim)
	}
	sp := exportSpan([]KVCache{*c}, 0, c.Rows())
	want := &KVSpan{K: [][]float64{m.k}, V: [][]float64{m.v}, Rows: m.rows(), Dim: m.dim}
	if !sp.Equal(want) {
		t.Fatalf("%s: exported rows differ from the row-major model", what)
	}
	for j := 0; j < m.rows(); j++ {
		for f := 0; f < m.dim; f++ {
			if got := c.k[f*c.capRows+j]; got != m.k[j*m.dim+f] {
				t.Fatalf("%s: key row %d feature %d = %v, model %v", what, j, f, got, m.k[j*m.dim+f])
			}
		}
	}
}

// TestKVCacheReserveMidSequencePreservesRows: growing the storage moves
// every feature's run of keys under the new stride; starting from a row
// count that is not a multiple of the block, by explicit reserve and by
// append's own doubling.
func TestKVCacheReserveMidSequencePreservesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	const dim = 6
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	for _, step := range []struct{ add, reserve int }{{5, 0}, {0, 40}, {13, 0}, {30, 0}, {0, 200}, {1, 0}} {
		if step.reserve > 0 {
			c.reserve(step.reserve)
		}
		k, v := randRows(rng, step.add, dim)
		c.appendFloats(k, v)
		m.append(k, v)
		checkKVCache(t, c, m, fmt.Sprintf("after +%d rows, reserve %d", step.add, step.reserve))
	}
	before := c.capRows
	c.reserve(3) // never shrinks
	if c.capRows != before {
		t.Fatalf("reserve below capacity changed it: %d -> %d", before, c.capRows)
	}
}

// TestKVCacheTruncateThenAppend: rows appended after a rollback land on
// the rolled-back positions, not behind the stale ones.
func TestKVCacheTruncateThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	const dim = 5
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	k, v := randRows(rng, 21, dim)
	c.appendFloats(k, v)
	m.append(k, v)
	for _, to := range []int{17, 16, 3, 0} {
		c.truncate(to)
		m.truncate(to)
		checkKVCache(t, c, m, fmt.Sprintf("truncated to %d", to))
		k, v := randRows(rng, 2, dim)
		c.appendFloats(k, v)
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
	m := NewLMModel(Config{Vocab: 30, Dim: 8, Heads: 2, FFHidden: 12, EncLayers: 1, DecLayers: 2, SeqLen: 64}, rand.New(rand.NewSource(164)))
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

// TestKVSpanRaggedExportLoadRoundTrip: ExportSelf(r0, r1) -> LoadKV ->
// ExportSelf is the identity for ranges that start and end off the
// block width, and a sliced span loads like the rows it views.
func TestKVSpanRaggedExportLoadRoundTrip(t *testing.T) {
	m := kvTestModel(true)
	st := m.NewDecodeState()
	m.Prefill([]*DecodeState{st}, [][]int{kvTestPrompt(37)})
	cross := st.ExportCross()
	whole := st.ExportSelf(0, 37)
	for _, r := range [][2]int{{0, 37}, {1, 16}, {3, 19}, {15, 17}, {16, 33}, {5, 5}, {36, 37}} {
		sp := st.ExportSelf(r[0], r[1])
		if !sp.Equal(whole.Slice(r[0], r[1])) {
			t.Fatalf("ExportSelf[%d, %d) differs from the same rows of the whole export", r[0], r[1])
		}
		loaded := m.NewDecodeState()
		loaded.LoadKV(cross, sp)
		if loaded.Pos() != r[1]-r[0] || !loaded.ExportSelf(0, loaded.Pos()).Equal(sp) {
			t.Fatalf("[%d, %d): export -> load -> export is not the identity", r[0], r[1])
		}
		// the sliced view shares storage with the whole export at an
		// offset; appending it must read only its own rows
		sliced := m.NewDecodeState()
		sliced.LoadKV(cross, whole.Slice(0, r[0]), whole.Slice(r[0], r[1]))
		if !sliced.ExportSelf(r[0], r[1]).Equal(sp) || !sliced.ExportSelf(0, r[1]).Equal(whole.Slice(0, r[1])) {
			t.Fatalf("[%d, %d): loading sliced spans differs from the rows they view", r[0], r[1])
		}
	}
}

// poisonSpareLanes overwrites every key column at or past Rows() — stale
// rows and block padding — with NaN in every self- and cross-attention
// cache of the state.
func poisonSpareLanes(st *DecodeState) {
	for _, caches := range [][]KVCache{st.self, st.cross} {
		for i := range caches {
			c := &caches[i]
			for f := 0; f < c.dim; f++ {
				for j := c.rows; j < c.capRows; j++ {
					c.k[f*c.capRows+j] = math.NaN()
				}
			}
		}
	}
}

// TestKVCacheSpareLanesNeverReachResults: the score kernel reads whole
// blocks, so it reads key columns past the window — padding, and rows a
// TruncateTo left behind. Poisoning all of them with NaN before every
// step and chunk must not change one bit of the logits.
func TestKVCacheSpareLanesNeverReachResults(t *testing.T) {
	run := func(poison bool) []*mat.Matrix {
		m := kvTestModel(false)
		st := m.NewDecodeState()
		states := []*DecodeState{st}
		touch := func() {
			if poison {
				poisonSpareLanes(st)
			}
		}
		var outs []*mat.Matrix
		outs = append(outs, m.Prefill(states, [][]int{kvTestPrompt(13)})[0].Clone())
		for i := 0; i < 6; i++ { // grows through the 16-row block edge
			touch()
			outs = append(outs, m.DecodeStep(states, []int{(5 + i) % 30}).Clone())
		}
		st.TruncateTo(14) // rows 14..18 are now stale
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
	full.appendFloats(k, v)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "transformer:") || !strings.Contains(msg, "sequence 1") {
			t.Fatalf("empty cache for sequence 1: got panic %q", msg)
		}
	}()
	a.DecodeStep(mat.New(2, 8), []*KVCache{full, {dim: 8}}, false)
}

// TestDecodeStepsIntoReservedCacheAllocationFree: a reserved cache that
// grows a row per step (no truncation between steps) allocates nothing —
// the score scratch is sized by capacity, not by the rows held so far.
func TestDecodeStepsIntoReservedCacheAllocationFree(t *testing.T) {
	m := kvTestModel(true)
	st := m.NewDecodeState()
	st.Reserve(5 + 40)
	states := []*DecodeState{st}
	m.Prefill(states, [][]int{kvTestPrompt(5)})
	tok := []int{7}
	m.DecodeStep(states, tok) // settles the decode-shaped buffers
	if allocs := testing.AllocsPerRun(30, func() { m.DecodeStep(states, tok) }); allocs != 0 {
		t.Fatalf("%v allocs per step into a reserved cache, want 0", allocs)
	}
}

// TestAttentionScratchDroppedWithoutReuse: SetBufferReuse(false) drops
// the context rows a reusing forward kept, and a forward pass without
// reuse keeps none. (The transposed-key scratch is borrowed per call
// from a free list the block does not own.)
func TestAttentionScratchDroppedWithoutReuse(t *testing.T) {
	a := NewMultiHeadAttention("attn", 8, 2, rand.New(rand.NewSource(167)))
	x, off := mat.New(5, 8), []int{0, 5}
	a.SetBufferReuse(true)
	a.ForwardBatch(x, x, off, off, false)
	if a.concat == nil {
		t.Fatal("reuse on: no context rows kept")
	}
	a.SetBufferReuse(false)
	if a.concat != nil {
		t.Fatal("SetBufferReuse(false) kept forward scratch")
	}
	a.ForwardBatch(x, x, off, off, false)
	if a.concat != nil {
		t.Fatal("reuse off: context rows kept across calls")
	}
}

// runKVCacheScript interprets an op stream against one cache and its
// row-major model, re-checking the whole layout after every op. Each op
// is 2 bytes: kind and argument.
func runKVCacheScript(t *testing.T, script []byte) {
	const dim = 3
	rng := rand.New(rand.NewSource(168))
	c, m := &KVCache{dim: dim}, &kvModel{dim: dim}
	for ; len(script) >= 2; script = script[2:] {
		kind, arg := script[0]%5, int(script[1])
		what := fmt.Sprintf("op %d arg %d", kind, arg)
		switch kind {
		case 0: // reserve
			c.reserve(arg % 70)
		case 1: // append 1..8 rows (the decode step and the chunk)
			k, v := randRows(rng, 1+arg%8, dim)
			c.appendFloats(k, v)
			m.append(k, v)
		case 2: // truncate
			to := arg % (m.rows() + 1)
			c.truncate(to)
			m.truncate(to)
		case 3: // export a range, compare with the model's rows
			r0 := arg % (m.rows() + 1)
			r1 := r0 + (arg/7)%(m.rows()-r0+1)
			sp := exportSpan([]KVCache{*c}, r0, r1)
			want := &KVSpan{K: [][]float64{m.k[r0*dim : r1*dim]}, V: [][]float64{m.v[r0*dim : r1*dim]}, Rows: r1 - r0, Dim: dim}
			if !sp.Equal(want) {
				t.Fatalf("%s: export [%d, %d) differs from the model", what, r0, r1)
			}
		case 4: // export a range and load it back behind a truncate
			r0 := arg % (m.rows() + 1)
			sp := exportSpan([]KVCache{*c}, r0, m.rows())
			to := (arg / 3) % (m.rows() + 1)
			c.truncate(to)
			m.truncate(to)
			c.appendFloats(sp.K[0], sp.V[0])
			m.append(sp.K[0], sp.V[0])
		}
		checkKVCache(t, c, m, what)
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

// FuzzKVCacheLayout explores reserve/append/truncate/export/load
// interleavings of the feature-major cache against the row-major model
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
	addPositional(want, off, m.Pos)
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
