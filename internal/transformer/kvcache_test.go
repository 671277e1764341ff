package transformer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// appendPacked appends the packed row-major rows k and v to the cache
// through appendRows.
func appendPacked(c *KVCache, k, v []float64) {
	n := len(k) / c.dim
	c.appendRows(mat.FromSlice(n, c.dim, k), mat.FromSlice(n, c.dim, v), 0, n)
}

// checkKVCache holds the cache to the model: the row-major values, and
// the feature-major placement of the keys the attention core indexes
// directly.
func checkKVCache(t *testing.T, c *KVCache, m *kvModel, what string) {
	t.Helper()
	if c.rows != m.rows() {
		t.Fatalf("%s: cache holds %d rows, model %d", what, c.rows, m.rows())
	}
	if c.capRows%mat.AttendBlock != 0 || c.capRows < c.rows || len(c.k) != c.dim*c.capRows {
		t.Fatalf("%s: capacity %d rows (%d key floats) under %d rows at dim %d", what, c.capRows, len(c.k), c.rows, c.dim)
	}
	if !slices.Equal(c.v, m.v) {
		t.Fatalf("%s: value rows differ from the row-major model", what)
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
		appendPacked(c, k, v)
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
	appendPacked(c, k, v)
	m.append(k, v)
	for _, to := range []int{17, 16, 3, 0} {
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

// TestKVSpanRaggedExportLoadRoundTrip snapshots a 37-row prefill at row
// counts off the 16-row block edge and copies each into a fresh state.
// The copy equals the same prefill rewound to those rows with
// TruncateTo, and snapshot -> copy -> snapshot is the identity.
func TestKVSpanRaggedExportLoadRoundTrip(t *testing.T) {
	m := kvTestModel(true)
	prefill := func() *DecodeState {
		st := m.NewDecodeState()
		m.Prefill([]*DecodeState{st}, [][]int{kvTestPrompt(37)})
		return st
	}
	st := prefill()
	for _, rows := range []int{37, 16, 19, 17, 33, 5, 1, 0} {
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
// contract. A snapshot of the first rows of a 37-row prefill, at row
// counts that start, straddle and end score blocks, holds them in the
// fewest whole blocks, and copies into a fresh state, into a larger one
// holding stale rows and NaN spare lanes, and into a smaller one. Each
// copy equals the snapshot, copies again (its storage now reserved)
// without allocating, and feeds the next token to the logits of the
// source rewound to those rows, at tolerance 0.
func TestDecodeStateSnapshotCopyFrom(t *testing.T) {
	m := kvTestModel(true)
	prompt := kvTestPrompt(37)
	prefill := func(p []int, reserve int) *DecodeState {
		st := m.NewDecodeState()
		st.Reserve(reserve)
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
	other := make([]int, 45)
	for i := range other {
		other[i] = (11 + 5*i) % 30
	}
	src := prefill(prompt, 0)
	for _, rows := range []int{0, 1, 15, 16, 17, 33, 37} {
		snap := src.Snapshot(rows)
		for li := range snap.self {
			s, c := &snap.self[li], &snap.cross[li]
			if snap.Pos() != rows || s.capRows != mat.AttendPadded(rows) || c.capRows != mat.AttendPadded(37) || cap(s.v) != s.capRows*s.dim {
				t.Fatalf("%d rows, layer %d: snapshot at Pos %d holds %d self / %d memory rows of capacity", rows, li, snap.Pos(), s.capRows, c.capRows)
			}
		}
		ref := prefill(prompt, 0)
		ref.TruncateTo(rows)
		want := next(ref)

		larger := prefill(other, 80)
		poisonSpareLanes(larger)
		for _, target := range []struct {
			name string
			st   *DecodeState
		}{{"fresh", m.NewDecodeState()}, {"larger", larger}, {"smaller", prefill(other[:3], 0)}} {
			what := fmt.Sprintf("%d rows into a %s state", rows, target.name)
			target.st.CopyFrom(snap)
			if !target.st.Equal(snap) || !snap.Equal(target.st) {
				t.Fatalf("%s: the copy differs from the snapshot", what)
			}
			if allocs := testing.AllocsPerRun(10, func() { target.st.CopyFrom(snap) }); allocs != 0 {
				t.Fatalf("%s: %v allocs per CopyFrom into reserved storage, want 0", what, allocs)
			}
			if got := next(target.st); !mat.Equal(got, want, 0) {
				t.Fatalf("%s: the next token's logits differ from the source's", what)
			}
		}
		if !snap.Equal(src.Snapshot(rows)) {
			t.Fatalf("%d rows: decoding a copy wrote through to the snapshot", rows)
		}

		cp := snap.Snapshot(rows)
		poisonSpareLanes(cp)
		if !cp.Equal(snap) {
			t.Fatalf("%d rows: Equal read the poisoned spare lanes", rows)
		}
		mem := &cp.cross[1]
		below := []*float64{&mem.k[(mem.dim-1)*mem.capRows+mem.rows-1], &mem.v[0]}
		if rows > 0 {
			s := &cp.self[1]
			below = append(below, &s.k[(s.dim-1)*s.capRows+rows-1], &s.v[len(s.v)-1])
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

// poisonSpareLanes overwrites every key column at or past the rows held
// — stale rows and block padding — with NaN in every self- and
// cross-attention cache of the state.
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
	appendPacked(full, k, v)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "transformer:") || !strings.Contains(msg, "sequence 1") {
			t.Fatalf("empty cache for sequence 1: got panic %q", msg)
		}
	}()
	a.attendCached(mat.New(2, 8), []*KVCache{full, {dim: 8}}, []int{0, 1, 2}, false)
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
			appendPacked(c, k, v)
			m.append(k, v)
		case 2: // truncate
			to := arg % (m.rows() + 1)
			c.truncate(to)
			m.truncate(to)
		case 3: // copy rows [0, r) into a fresh cache, compare with the model's
			r := arg % (m.rows() + 1)
			cp := &KVCache{dim: dim}
			cp.copyFrom(c, r)
			checkKVCache(t, cp, &kvModel{dim: dim, k: m.k[:r*dim], v: m.v[:r*dim]}, what+", the copy")
		case 4: // copy rows [0, r) out, truncate, and copy them back in
			r := arg % (m.rows() + 1)
			cp := &KVCache{dim: dim}
			cp.copyFrom(c, r)
			kept := &kvModel{dim: dim, k: slices.Clone(m.k[:r*dim]), v: slices.Clone(m.v[:r*dim])}
			to := (arg / 3) % (m.rows() + 1)
			c.truncate(to)
			c.copyFrom(cp, r)
			m = kept
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

// FuzzKVCacheLayout explores reserve/append/truncate/copy
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
