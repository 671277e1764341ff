package serve_test

import (
	"testing"

	"rt3/internal/serve"
)

// splitGen submits prefix+suffix as one split request (o.SplitAt is set
// here) and returns its reply, failing the test on any error.
func splitGen(t testing.TB, srv *serve.Server, prefix, suffix []int, o serve.GenOpts) serve.GenResponse {
	t.Helper()
	o.SplitAt = len(prefix)
	ch, err := srv.SubmitGenOpts(append(append([]int(nil), prefix...), suffix...), o)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	return resp
}

// splitGenDense is splitGen plus the ground-truth check: the reply must
// equal the masked dense split reference at the given level.
func splitGenDense(t testing.TB, srv *serve.Server, level int, prefix, suffix []int, budget int) serve.GenResponse {
	t.Helper()
	resp := splitGen(t, srv, prefix, suffix, serve.GenOpts{MaxTokens: budget, EOS: -1})
	want, err := srv.DenseGenReferenceSplit(level, prefix, suffix, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantTokens(t, "split reply vs dense split reference", resp.Tokens, want)
	return resp
}

// TestGenerateSplitPrefixCache runs split (shared-system-prompt)
// requests through a server with the prefix cache on: every
// response must match the masked dense split reference, the first wave
// populates the cache, and the second wave — same prefix, fresh
// suffixes — must report cached rows and radix hits.
func TestGenerateSplitPrefixCache(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 64,
		PrefixCacheRows: -1,
	})
	srv.Start()
	defer srv.Stop()

	prefix := randSeqs(1, 5, lmCfg.Vocab, 307)[0]
	suffixes := [][]int{
		randSeqs(1, 3, lmCfg.Vocab, 311)[0],
		randSeqs(1, 6, lmCfg.Vocab, 313)[0],
		randSeqs(1, 4, lmCfg.Vocab, 317)[0],
	}
	const budget = 6
	level := eng.Level()

	// wave 1: populates the cache (each waits, so inserts land before
	// the next lookup)
	if resp := splitGenDense(t, srv, level, prefix, suffixes[0], budget); resp.CachedRows != 0 {
		t.Fatalf("cold split request reports %d cached rows", resp.CachedRows)
	}
	// wave 2: same prefix, fresh suffixes — prefix rows must come from
	// the cache
	for i, suffix := range suffixes[1:] {
		resp := splitGenDense(t, srv, level, prefix, suffix, budget)
		if resp.CachedRows < len(prefix) {
			t.Fatalf("warm split request %d: %d cached rows, want >= prefix %d",
				i, resp.CachedRows, len(prefix))
		}
	}
	// an exact repeat loads the prompt's rows alone: the cache holds
	// prompts, and every suffix is teacher-forced
	resp := splitGenDense(t, srv, level, prefix, suffixes[0], budget)
	if wantRows := len(prefix); resp.CachedRows != wantRows {
		t.Fatalf("repeat split request: %d cached rows, want %d", resp.CachedRows, wantRows)
	}

	st, ok := srv.PrefixCacheStats()
	if !ok {
		t.Fatal("prefix cache configured but stats report disabled")
	}
	if st.Hits == 0 || st.HitRows == 0 || st.Inserts == 0 {
		t.Fatalf("prefix cache counters flat: %+v", st)
	}
}

// TestPrefixCacheRowsAvoidedFloor is the deterministic shared-prompt
// floor: 8 split requests over one 48-token prefix, cache on against
// cache off. The streams must be identical, both equal to the masked
// dense split reference, and the rows the engine computes (prefill +
// chunk) must drop by at least 1.3x with the cache on — a counter
// ratio, no timing (416 rows against 80, 5.20x).
func TestPrefixCacheRowsAvoidedFloor(t *testing.T) {
	const (
		prefixLen, suffixLen, requests, budget = 48, 4, 8, 8
		floor                                  = 1.3
	)
	cfg := lmCfg
	cfg.SeqLen = prefixLen + suffixLen + budget
	prefix := randSeqs(1, prefixLen, cfg.Vocab, 503)[0]
	suffixes := randSeqs(requests, suffixLen, cfg.Vocab, 509)

	run := func(cacheRows int) ([][]int, int64) {
		eng, _ := newLMDeploymentCfg(t, cfg, 1, "pattern")
		srv := serve.New(eng, serve.Config{
			Generate: true, MaxBatch: 4, QueueCap: 64,
			PrefixCacheRows: cacheRows,
		})
		srv.Start()
		defer srv.Stop()
		streams := make([][]int, requests)
		for i, suffix := range suffixes {
			streams[i] = splitGenDense(t, srv, eng.Level(), prefix, suffix, budget).Tokens
		}
		st := eng.DecodeStats()
		return streams, st.PrefillRows + st.ChunkRows
	}
	offStreams, offRows := run(0)
	onStreams, onRows := run(-1)
	for i := range offStreams {
		wantTokens(t, "cached stream vs uncached stream", onStreams[i], offStreams[i])
	}
	if want := int64(requests * (prefixLen + suffixLen)); offRows != want {
		t.Fatalf("uncached server computed %d rows, want %d", offRows, want)
	}
	ratio := float64(offRows) / float64(onRows)
	t.Logf("rows computed: %d uncached, %d cached (%.2fx)", offRows, onRows, ratio)
	if ratio < floor {
		t.Fatalf("prefix cache avoided %.2fx rows, want >= %.1fx", ratio, floor)
	}
}

// TestPrefixCacheRowBound serves split requests over two prefixes, in
// runs of two, through a cache that holds one: the resident rows must
// stay within PrefixCacheRows after every reply, evictions must happen,
// and every reply must still equal the dense split reference — an
// eviction may only ever cost rows, never change tokens.
func TestPrefixCacheRowBound(t *testing.T) {
	const bound, budget = 8, 4
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 64,
		PrefixCacheRows: bound,
	})
	srv.Start()
	defer srv.Stop()

	prefixes := randSeqs(2, 5, lmCfg.Vocab, 601)
	suffixes := randSeqs(10, 3, lmCfg.Vocab, 607)
	hits := 0
	for i, suffix := range suffixes {
		resp := splitGenDense(t, srv, eng.Level(), prefixes[i/2%2], suffix, budget)
		if resp.CachedRows > 0 {
			hits++
		}
		st, _ := srv.PrefixCacheStats()
		if st.UsedRows > bound {
			t.Fatalf("after reply %d the cache holds %d rows, bound %d", i, st.UsedRows, bound)
		}
	}
	st, _ := srv.PrefixCacheStats()
	if st.Evictions == 0 || st.EvictedRows == 0 {
		t.Fatalf("a %d-row cache never evicted: %+v", bound, st)
	}
	if hits == 0 {
		t.Fatalf("no request hit the bounded cache: %+v", st)
	}
}

// TestPrefixCacheLevelIsolation: rows cached at one level are never
// served at another. After a live switch the same request misses
// (CachedRows 0) and equals the new level's dense split reference;
// switching back hits the rows cached before.
func TestPrefixCacheLevelIsolation(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 64,
		PrefixCacheRows: -1,
	})
	srv.Start()
	defer srv.Stop()

	prefix := randSeqs(1, 5, lmCfg.Vocab, 701)[0]
	suffix := randSeqs(1, 4, lmCfg.Vocab, 709)[0]
	const budget, levelA, levelB = 6, 0, 2
	warmRows := len(prefix)

	if resp := splitGenDense(t, srv, levelA, prefix, suffix, budget); resp.CachedRows != 0 {
		t.Fatalf("cold request at level %d reports %d cached rows", levelA, resp.CachedRows)
	}
	if resp := splitGenDense(t, srv, levelA, prefix, suffix, budget); resp.CachedRows != warmRows {
		t.Fatalf("repeat at level %d: %d cached rows, want %d", levelA, resp.CachedRows, warmRows)
	}
	if _, err := srv.SwitchTo(levelB); err != nil {
		t.Fatal(err)
	}
	if resp := splitGenDense(t, srv, levelB, prefix, suffix, budget); resp.CachedRows != 0 {
		t.Fatalf("level %d served %d rows cached at level %d", levelB, resp.CachedRows, levelA)
	}
	if _, err := srv.SwitchTo(levelA); err != nil {
		t.Fatal(err)
	}
	if resp := splitGenDense(t, srv, levelA, prefix, suffix, budget); resp.CachedRows != warmRows {
		t.Fatalf("back at level %d: %d cached rows, want %d", levelA, resp.CachedRows, warmRows)
	}
}

// TestSplitResumeEquivalence: a split request resumed from a committed
// prefix (GenOpts.SplitAt and GenOpts.Prefix together — failover of a
// shared-system-prompt stream) must continue into exactly the
// uninterrupted split stream, whether its prefill rows come from the
// cache (every resume here hits) or not.
func TestSplitResumeEquivalence(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 16,
		PrefixCacheRows: -1,
	})
	srv.Start()
	defer srv.Stop()

	prefix := randSeqs(1, 5, lmCfg.Vocab, 801)[0]
	suffix := randSeqs(1, 3, lmCfg.Vocab, 809)[0]
	const budget = 10
	full := splitGenDense(t, srv, eng.Level(), prefix, suffix, budget)
	for _, cut := range []int{1, 4, budget - 1} {
		resp := splitGen(t, srv, prefix, suffix, serve.GenOpts{
			Prefix: full.Tokens[:cut], MaxTokens: budget, EOS: -1,
		})
		wantTokens(t, "resumed split stream vs uninterrupted", resp.Tokens, full.Tokens)
		if resp.CachedRows == 0 {
			t.Fatalf("cut %d: resumed split request missed the prefix cache", cut)
		}
	}
}
