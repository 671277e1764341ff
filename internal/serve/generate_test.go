package serve_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/loadgen"
	"rt3/internal/mat"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// lmCfg is the generation-test topology: the paper's encoder-decoder LM
// shape with two decoder layers so the multi-layer cached path runs
// through packed kernels too.
var lmCfg = transformer.Config{
	Vocab: 24, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 2, SeqLen: 12,
}

// newLMDeployment deploys an LM bundle onto the requested number of
// cloned replicas with the given kernel format, returning the engine
// and the concrete models (for reference-path access).
func newLMDeployment(t testing.TB, replicas int, format string) (*serve.Engine, []*transformer.LMModel) {
	t.Helper()
	return newLMDeploymentCfg(t, lmCfg, replicas, format)
}

// newLMDeploymentCfg is newLMDeployment over another topology (e.g. a
// longer SeqLen for long shared prefixes).
func newLMDeploymentCfg(t testing.TB, cfg transformer.Config, replicas int, format string) (*serve.Engine, []*transformer.LMModel) {
	t.Helper()
	d, err := serve.Deploy(testSpec(5, 4), func(rng *rand.Rand) *transformer.LMModel {
		return transformer.NewLMModel(cfg, rng)
	}, replicas, serve.EngineConfig{Format: format})
	if err != nil {
		t.Fatal(err)
	}
	lms := make([]*transformer.LMModel, replicas)
	for i, m := range d.Replicas {
		lms[i] = m.(*transformer.LMModel)
	}
	return d.Engine, lms
}

// decodeCached generates genLen tokens for the prompts through the
// engine's cached path on the given replica, returning the per-step
// packed logits (cloned) and the final token streams.
func decodeCached(t testing.TB, eng *serve.Engine, replica int, prompts [][]int, genLen int) ([]*mat.Matrix, [][]int) {
	t.Helper()
	states := make([]*transformer.DecodeState, len(prompts))
	for i := range states {
		st, err := eng.NewDecodeState(replica)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	outs, err := eng.PrefillBatch(replica, states, prompts)
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]int, len(prompts))
	streams := make([][]int, len(prompts))
	for i := range prompts {
		tokens[i] = outs[i].ArgmaxRow(outs[i].Rows - 1)
		streams[i] = append(streams[i], tokens[i])
	}
	var steps []*mat.Matrix
	for s := 1; s < genLen; s++ {
		logits, err := eng.DecodeBatch(replica, states, tokens)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, logits.Clone())
		for i := range prompts {
			tokens[i] = logits.ArgmaxRow(i)
			streams[i] = append(streams[i], tokens[i])
		}
	}
	return steps, streams
}

// TestDecodeBatchBitIdenticalAllFormats is the serving-side tentpole
// invariant: for every registry kernel format and every deployed level,
// N tokens decoded through the engine's KV-cached path produce logits
// bit-identical to N full recomputations of the decoder stack over the
// growing prefix (DecodeFull on the same packed kernels).
func TestDecodeBatchBitIdenticalAllFormats(t *testing.T) {
	const genLen = 6
	for _, format := range kernel.Formats() {
		format := format
		t.Run(format, func(t *testing.T) {
			eng, lms := newLMDeployment(t, 1, format)
			m := lms[0]
			prompts := [][]int{
				randSeqs(1, 7, lmCfg.Vocab, 61)[0],
				randSeqs(1, 1, lmCfg.Vocab, 62)[0],
				randSeqs(1, 9, lmCfg.Vocab, 63)[0],
			}
			for lvl := 0; lvl < eng.NumLevels(); lvl++ {
				if _, err := eng.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				memory, memOff := m.EncodeBatch(prompts)
				stepLogits, streams := decodeCached(t, eng, 0, prompts, genLen)

				// replay the same token streams through full recomputation
				seqs := make([][]int, len(prompts))
				for i := range prompts {
					seqs[i] = append(append([]int(nil), prompts[i]...), streams[i][0])
				}
				for s, logits := range stepLogits {
					refs := m.DecodeFull(seqs, memory, memOff)
					for i := range prompts {
						got := logits.RowSpan(i, i+1)
						want := refs[i].RowSpan(refs[i].Rows-1, refs[i].Rows)
						if !mat.Equal(got, want, 0) {
							t.Fatalf("level %d step %d seq %d: cached logits differ from full recompute", lvl, s, i)
						}
					}
					for i := range prompts {
						seqs[i] = append(seqs[i], streams[i][s+1])
					}
				}
			}
		})
	}
}

// TestGenerateSchedulerRaggedEviction runs the continuous-batching
// scheduler end to end with ragged token budgets: sequences finish at
// different steps, slots are evicted and refilled mid-stream, and every
// response must match the single-sequence cached reference — plus the
// free-list must keep the decode-state count at the slot count.
func TestGenerateSchedulerRaggedEviction(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	refEng, _ := newLMDeployment(t, 1, "pattern")

	const maxBatch = 4
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: maxBatch, QueueCap: 64,
	})
	srv.Start()
	defer srv.Stop()

	prompts := randSeqs(12, 6, lmCfg.Vocab, 67)
	budgets := []int{3, 1, 6, 2, 5, 1, 4, 2, 6, 3, 1, 5}
	chans := make([]<-chan serve.GenResponse, len(prompts))
	for i := range prompts {
		ch, err := srv.SubmitGen(prompts[i], budgets[i], -1)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if len(resp.Tokens) != budgets[i] {
			t.Fatalf("request %d: %d tokens, want %d (EOS disabled)", i, len(resp.Tokens), budgets[i])
		}
		if resp.Steps != budgets[i]-1 {
			t.Fatalf("request %d: %d steps for %d tokens", i, resp.Steps, len(resp.Tokens))
		}
		_, want := decodeCached(t, refEng, 0, [][]int{prompts[i]}, budgets[i])
		for j, tok := range resp.Tokens {
			if tok != want[0][j] {
				t.Fatalf("request %d token %d: got %d, want %d", i, j, tok, want[0][j])
			}
		}
	}
	if st := eng.DecodeStats(); st.States > maxBatch {
		t.Fatalf("scheduler built %d decode states for %d slots: free-list not recycling", st.States, maxBatch)
	} else if st.Tokens == 0 || st.CachedRows == 0 {
		t.Fatalf("decode counters not advancing: %+v", st)
	}
}

// TestGenerateConcurrentReplicas drives the engine's decode path on two
// replicas from two goroutines (the decode-worker concurrency pattern);
// run under -race in CI. Each replica's token streams must match its
// own sequential reference.
func TestGenerateConcurrentReplicas(t *testing.T) {
	eng, _ := newLMDeployment(t, 2, "pattern")
	const genLen = 8
	prompts := [][]int{
		randSeqs(1, 5, lmCfg.Vocab, 71)[0],
		randSeqs(1, 8, lmCfg.Vocab, 72)[0],
	}
	// sequential references, one per replica
	var refs [2][][]int
	for r := 0; r < 2; r++ {
		_, refs[r] = decodeCached(t, eng, r, [][]int{prompts[r]}, genLen)
	}
	const rounds = 20
	errc := make(chan error, 2)
	for r := 0; r < 2; r++ {
		r := r
		go func() {
			for i := 0; i < rounds; i++ {
				_, got := decodeCached(t, eng, r, [][]int{prompts[r]}, genLen)
				for j, tok := range got[0] {
					if tok != refs[r][0][j] {
						errc <- fmt.Errorf("replica %d round %d token %d: got %d want %d", r, i, j, tok, refs[r][0][j])
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateLiveSwitch reconfigures the engine mid-generation: the
// switch drains at decode-step granularity, in-flight sequences keep
// their caches and finish on the new level's kernels, and nothing
// deadlocks or drops.
func TestGenerateLiveSwitch(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 64, MaxGenTokens: 40})
	srv.Start()
	defer srv.Stop()

	prompts := randSeqs(6, 5, lmCfg.Vocab, 73)
	chans := make([]<-chan serve.GenResponse, len(prompts))
	for i := range prompts {
		ch, err := srv.SubmitGen(prompts[i], 40, -1)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	if _, err := srv.SwitchTo(2); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if len(resp.Tokens) != 40 {
			t.Fatalf("request %d: %d tokens, want 40", i, len(resp.Tokens))
		}
	}
	if eng.Level() != 2 {
		t.Fatalf("level %d after switch, want 2", eng.Level())
	}
}

// TestGenerateEOSEviction: a request with an EOS token stops as soon as
// the model emits it, budget permitting.
func TestGenerateEOSEviction(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	refEng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 16})
	srv.Start()
	defer srv.Stop()

	prompt := randSeqs(1, 6, lmCfg.Vocab, 79)[0]
	const budget = 10
	_, ref := decodeCached(t, refEng, 0, [][]int{prompt}, budget)
	// pick as EOS a generated token whose first occurrence is not the
	// first token, so the response must run past step one and stop there
	cut := -1
	for j := 1; j < len(ref[0]) && cut < 0; j++ {
		first := true
		for _, prev := range ref[0][:j] {
			if prev == ref[0][j] {
				first = false
				break
			}
		}
		if first {
			cut = j
		}
	}
	if cut < 0 {
		t.Skip("greedy stream repeats one token; no mid-stream EOS candidate")
	}
	eos := ref[0][cut]
	ch, err := srv.SubmitGen(prompt, budget, eos)
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	want := ref[0][:cut+1]
	if len(resp.Tokens) != len(want) {
		t.Fatalf("got %d tokens %v, want %d (stop at EOS %d)", len(resp.Tokens), resp.Tokens, len(want), eos)
	}
	for j, tok := range resp.Tokens {
		if tok != want[j] {
			t.Fatalf("token %d: got %d, want %d", j, tok, want[j])
		}
	}
}

// raggedPrompts builds a ragged prompt batch (distinct lengths, one a
// single token) so fused admission and fused steps see uneven rows.
func raggedPrompts(seed int64) [][]int {
	return [][]int{
		randSeqs(1, 7, lmCfg.Vocab, seed)[0],
		randSeqs(1, 1, lmCfg.Vocab, seed+1)[0],
		randSeqs(1, 9, lmCfg.Vocab, seed+2)[0],
		randSeqs(1, 4, lmCfg.Vocab, seed+3)[0],
	}
}

// decodeCachedSplit is the sequential reference of a split request on
// the engine's cached path: prefill the prefix alone, teacher-force the
// suffix one DecodeBatch step per token (what the server fuses into one
// DecodeChunkBatch), then decode greedily to genLen tokens.
func decodeCachedSplit(t testing.TB, eng *serve.Engine, replica int, prefix, suffix []int, genLen int) []int {
	t.Helper()
	st, err := eng.NewDecodeState(replica)
	if err != nil {
		t.Fatal(err)
	}
	states := []*transformer.DecodeState{st}
	if _, err := eng.PrefillBatch(replica, states, [][]int{prefix}); err != nil {
		t.Fatal(err)
	}
	feed := append([]int(nil), suffix...)
	var stream []int
	for i := 0; len(stream) < genLen; i++ {
		logits, err := eng.DecodeBatch(replica, states, feed[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(suffix)-1 {
			tok := logits.ArgmaxRow(0)
			stream = append(stream, tok)
			feed = append(feed, tok)
		}
	}
	return stream
}

// wantTokens fails the test unless got equals want token-for-token.
func wantTokens(t testing.TB, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tokens, want %d", what, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s token %d: got %d, want %d", what, j, got[j], want[j])
		}
	}
}

// TestGenerateBitIdenticalFormatsLevels is the server-level bit-identity
// matrix: for every registry kernel format and every deployed pruning
// level, the server's output over a ragged batch — four whole-prompt
// requests plus one split request, so the fused prefill, the fused
// suffix chunk and the fused steps all run in every format — must equal
// the single-sequence cached loop token-for-token, and the masked dense
// reference too.
func TestGenerateBitIdenticalFormatsLevels(t *testing.T) {
	budgets := []int{6, 3, 8, 5}
	const splitBudget = 5
	prefix := randSeqs(1, 5, lmCfg.Vocab, 107)[0]
	suffix := randSeqs(1, 3, lmCfg.Vocab, 109)[0]
	for _, format := range kernel.Formats() {
		format := format
		t.Run(format, func(t *testing.T) {
			eng, _ := newLMDeployment(t, 1, format)
			refEng, _ := newLMDeployment(t, 1, format)
			srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 5, QueueCap: 64})
			srv.Start()
			defer srv.Stop()

			prompts := raggedPrompts(101)
			for lvl := 0; lvl < eng.NumLevels(); lvl++ {
				if _, err := srv.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				if _, err := refEng.SwitchTo(lvl); err != nil {
					t.Fatal(err)
				}
				chans := make([]<-chan serve.GenResponse, len(prompts))
				for i := range prompts {
					ch, err := srv.SubmitGen(prompts[i], budgets[i], -1)
					if err != nil {
						t.Fatal(err)
					}
					chans[i] = ch
				}
				splitCh, err := srv.SubmitGenOpts(append(append([]int(nil), prefix...), suffix...),
					serve.GenOpts{SplitAt: len(prefix), MaxTokens: splitBudget, EOS: -1})
				if err != nil {
					t.Fatal(err)
				}
				for i, ch := range chans {
					resp := <-ch
					if resp.Err != nil {
						t.Fatalf("level %d request %d: %v", lvl, i, resp.Err)
					}
					what := fmt.Sprintf("level %d request %d", lvl, i)
					_, want := decodeCached(t, refEng, 0, [][]int{prompts[i]}, budgets[i])
					wantTokens(t, what+" vs cached loop", resp.Tokens, want[0])
					dense, err := srv.DenseGenReference(lvl, prompts[i], budgets[i], -1)
					if err != nil {
						t.Fatal(err)
					}
					wantTokens(t, what+" vs masked dense", resp.Tokens, dense)
				}
				resp := <-splitCh
				if resp.Err != nil {
					t.Fatalf("level %d split request: %v", lvl, resp.Err)
				}
				what := fmt.Sprintf("level %d split request", lvl)
				wantTokens(t, what+" vs cached loop", resp.Tokens,
					decodeCachedSplit(t, refEng, 0, prefix, suffix, splitBudget))
				dense, err := srv.DenseGenReferenceSplit(lvl, prefix, suffix, splitBudget, -1)
				if err != nil {
					t.Fatal(err)
				}
				wantTokens(t, what+" vs masked dense", resp.Tokens, dense)
			}
			if st := eng.DecodeStats(); st.Chunks == 0 {
				t.Fatal("no fused chunk pass ran: the split requests missed DecodeChunkBatch")
			}
		})
	}
}

// TestGenerateModeErrors pins the admission surface of the two modes:
// a generation server serves mixed traffic (classification batches ride
// between decode steps), while SubmitGen on a classification server
// still refuses.
func TestGenerateModeErrors(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	gen := serve.New(eng, serve.Config{Generate: true, MaxBatch: 2, QueueCap: 4})
	gen.Start()
	prompt := []int{1, 2}
	ch, err := gen.Submit(prompt)
	if err != nil {
		t.Fatalf("Submit on generation server: %v, want mixed-mode admission", err)
	}
	resp := <-ch
	if resp.Err != nil {
		t.Fatalf("classification on generation server: %v", resp.Err)
	}
	ref, err := gen.DenseReference(resp.Level, prompt)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(resp.Out, ref, 1e-9) {
		t.Fatal("mixed-mode classification differs from dense execution")
	}
	if _, err := gen.SubmitGen(nil, 4, -1); err != serve.ErrEmptyRequest {
		t.Fatalf("empty prompt: %v, want ErrEmptyRequest", err)
	}
	gen.Stop()
	if _, err := gen.SubmitGen([]int{1}, 4, -1); err != serve.ErrStopped {
		t.Fatalf("after stop: %v, want ErrStopped", err)
	}
	if _, err := gen.Submit([]int{1}); err != serve.ErrStopped {
		t.Fatalf("Submit after stop: %v, want ErrStopped", err)
	}

	cls, _ := newTestDeployment(t, 1)
	srv := serve.New(cls, serve.Config{})
	if _, err := srv.SubmitGen([]int{1, 2}, 4, -1); err != serve.ErrNotGenerating {
		t.Fatalf("SubmitGen on classification server: %v, want ErrNotGenerating", err)
	}
	srv.Stop()
}

// TestSubmitGenOptsSplitAt pins the SplitAt admission rule: it must cut
// the prompt into a non-empty prefix and suffix, and 0 keeps
// whole-prompt semantics.
func TestSubmitGenOptsSplitAt(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 2, QueueCap: 8})
	srv.Start()
	defer srv.Stop()
	prompt := []int{1, 2, 3}
	for _, tc := range []struct {
		splitAt int
		want    error
	}{
		{-1, serve.ErrBadSplit},
		{0, nil},
		{1, nil},
		{2, nil},
		{3, serve.ErrBadSplit}, // empty suffix
		{4, serve.ErrBadSplit},
	} {
		ch, err := srv.SubmitGenOpts(prompt, serve.GenOpts{SplitAt: tc.splitAt, MaxTokens: 2, EOS: -1})
		if err != tc.want {
			t.Fatalf("SplitAt %d: %v, want %v", tc.splitAt, err, tc.want)
		}
		if err == nil {
			if resp := <-ch; resp.Err != nil {
				t.Fatalf("SplitAt %d: %v", tc.splitAt, resp.Err)
			}
		}
	}
	if _, err := srv.SubmitGenOpts([]int{1}, serve.GenOpts{SplitAt: 1}); err != serve.ErrBadSplit {
		t.Fatalf("one-token prompt split at 1: %v, want ErrBadSplit", err)
	}
}

// TestSubmitRejectsBadTokens: a token id outside [0, vocab) is refused
// at admission with ErrBadToken on every entry point — the model would
// panic on it inside a worker goroutine and take the process down — and
// the server answers a good request afterwards.
func TestSubmitRejectsBadTokens(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	gen := serve.New(eng, serve.Config{Generate: true, MaxBatch: 2, QueueCap: 8})
	gen.Start()
	defer gen.Stop()
	cls, _ := newTestDeployment(t, 1)
	srv := serve.New(cls, serve.Config{QueueCap: 8})
	srv.Start()
	defer srv.Stop()

	vocab := lmCfg.Vocab // newTestDeployment's classifier has the same
	for _, tc := range []struct {
		name   string
		submit func() error
	}{
		{"classification, id == vocab", func() error { _, err := srv.Submit([]int{1, vocab}); return err }},
		{"classification, negative id", func() error { _, err := srv.Submit([]int{-1, 2}); return err }},
		{"classification on the generation server", func() error { _, err := gen.Submit([]int{1, 2, 9999}); return err }},
		{"generation prompt", func() error { _, err := gen.SubmitGen([]int{1, 2, 9999}, 4, -1); return err }},
		{"split prompt, bad prefix token", func() error {
			_, err := gen.SubmitGenOpts([]int{vocab, 2, 3}, serve.GenOpts{SplitAt: 1, MaxTokens: 2, EOS: -1})
			return err
		}},
		{"split prompt, bad suffix token", func() error {
			_, err := gen.SubmitGenOpts([]int{1, 2, -7}, serve.GenOpts{SplitAt: 1, MaxTokens: 2, EOS: -1})
			return err
		}},
		{"resume prefix", func() error { _, err := gen.SubmitGenResume([]int{1, 2}, []int{3, vocab}, 6, -1); return err }},
		{"resume prefix that already spends the budget", func() error {
			_, err := gen.SubmitGenResume([]int{1, 2}, []int{3, vocab}, 2, -1)
			return err
		}},
	} {
		if err := tc.submit(); !errors.Is(err, serve.ErrBadToken) {
			t.Errorf("%s: %v, want ErrBadToken", tc.name, err)
		}
	}

	ch, err := srv.Submit([]int{1, vocab - 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil {
		t.Fatalf("classification after the rejections: %v", resp.Err)
	}
	gch, err := gen.SubmitGenResume([]int{0, vocab - 1}, []int{3}, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-gch; resp.Err != nil || len(resp.Tokens) != 4 {
		t.Fatalf("generation after the rejections: %d tokens, err %v", len(resp.Tokens), resp.Err)
	}
}

// TestSubmitRejectsBadBudget checks Config.MaxGenTokens is the
// per-request cap: no budget picks it, the cap itself is served, and a
// budget above it fails at admission with ErrBadBudget — before any KV
// cache is sized for it — as do the dense references. A resumed prefix
// counts toward the budget, and the server keeps serving afterwards.
func TestSubmitRejectsBadBudget(t *testing.T) {
	const maxGen = 6
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 2, QueueCap: 8, MaxGenTokens: maxGen})
	srv.Start()
	defer srv.Stop()
	prompt := []int{1, 2, 3}

	for _, tc := range []struct {
		budget int
		prefix []int
		want   int // tokens served; 0 wants ErrBadBudget
	}{
		{budget: 0, want: maxGen},
		{budget: maxGen, want: maxGen},
		{budget: maxGen, prefix: []int{4, 5}, want: maxGen},
		{budget: maxGen + 1},
		{budget: maxGen + 1, prefix: []int{4, 5}},
		{budget: 1 << 40},
		{budget: 2, want: 2},
	} {
		ch, err := srv.SubmitGenResume(prompt, tc.prefix, tc.budget, -1)
		if tc.want == 0 {
			if !errors.Is(err, serve.ErrBadBudget) {
				t.Errorf("budget %d, prefix %v: %v, want ErrBadBudget", tc.budget, tc.prefix, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("budget %d, prefix %v: %v", tc.budget, tc.prefix, err)
		}
		if resp := <-ch; resp.Err != nil || len(resp.Tokens) != tc.want {
			t.Fatalf("budget %d, prefix %v: %d tokens, err %v; want %d", tc.budget, tc.prefix, len(resp.Tokens), resp.Err, tc.want)
		}
	}
	if _, err := srv.SubmitGenOpts(prompt, serve.GenOpts{SplitAt: 1, MaxTokens: maxGen + 1, EOS: -1}); !errors.Is(err, serve.ErrBadBudget) {
		t.Errorf("split request over the cap: %v, want ErrBadBudget", err)
	}
	if _, err := srv.DenseGenReference(0, prompt, 1<<40, -1); !errors.Is(err, serve.ErrBadBudget) {
		t.Errorf("DenseGenReference over the cap: %v, want ErrBadBudget", err)
	}
	if _, err := srv.DenseGenReferenceSplit(0, prompt[:1], prompt[1:], maxGen+1, -1); !errors.Is(err, serve.ErrBadBudget) {
		t.Errorf("DenseGenReferenceSplit over the cap: %v, want ErrBadBudget", err)
	}
	if ref, err := srv.DenseGenReference(0, prompt, 0, -1); err != nil || len(ref) != maxGen {
		t.Errorf("DenseGenReference at the default: %d tokens, err %v; want %d", len(ref), err, maxGen)
	}
}

// TestMixedModeTraffic drives concurrent classification and generation
// traffic through one generation server and dense-verifies both kinds:
// the decode loop interleaves classification batches between decode
// steps without perturbing either output.
func TestMixedModeTraffic(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 32})
	srv.Start()
	defer srv.Stop()

	prompts := randSeqs(6, 4, lmCfg.Vocab, 907)
	genCh := make([]<-chan serve.GenResponse, len(prompts))
	clsCh := make([]<-chan serve.Response, len(prompts))
	for i := range prompts {
		gch, err := srv.SubmitGen(prompts[i], 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		genCh[i] = gch
		cch, err := srv.Submit(prompts[i])
		if err != nil {
			t.Fatal(err)
		}
		clsCh[i] = cch
	}
	for i := range prompts {
		g := <-genCh[i]
		if g.Err != nil {
			t.Fatalf("generation %d: %v", i, g.Err)
		}
		ref, err := srv.DenseGenReference(g.Level, prompts[i], 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Tokens) != len(ref) {
			t.Fatalf("generation %d: %d tokens, want %d", i, len(g.Tokens), len(ref))
		}
		for j := range ref {
			if g.Tokens[j] != ref[j] {
				t.Fatalf("generation %d token %d: got %d, want %d", i, j, g.Tokens[j], ref[j])
			}
		}
		c := <-clsCh[i]
		if c.Err != nil {
			t.Fatalf("classification %d: %v", i, c.Err)
		}
		cref, err := srv.DenseReference(c.Level, prompts[i])
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(c.Out, cref, 1e-9) {
			t.Fatalf("classification %d differs from dense execution", i)
		}
	}
}

// TestGenerateStopDrains: Stop delivers every admitted generation in
// full — the same drain guarantee batch requests have.
func TestGenerateStopDrains(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 2, QueueCap: 16})
	srv.Start()
	prompts := randSeqs(6, 4, lmCfg.Vocab, 83)
	chans := make([]<-chan serve.GenResponse, len(prompts))
	for i := range prompts {
		ch, err := srv.SubmitGen(prompts[i], 3, -1)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	srv.Stop()
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d abandoned: %v", i, resp.Err)
		}
		if len(resp.Tokens) != 3 {
			t.Fatalf("request %d: %d tokens, want 3", i, len(resp.Tokens))
		}
	}
}

// TestLoadGenGenerationMode drives the decode path open-loop through
// the load generator's generation workload.
func TestLoadGenGenerationMode(t *testing.T) {
	eng, _ := newLMDeployment(t, 2, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 256})
	srv.Start()
	defer srv.Stop()

	report, err := loadgen.Run(loadgen.Keyless(srv), loadgen.Spec{
		Duration: 150 * time.Millisecond,
		Rate:     loadgen.Ramp(150, 300, 150*time.Millisecond),
		Sessions: 32, Vocab: lmCfg.Vocab,
		PromptMin: 2, PromptMax: 8,
		OutMin: 2, OutMax: 10,
		Seed: 89,
		// no policy moves the level, so no generation spans a switch and
		// every stream has a dense reference
		Verify: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.GenCompleted == 0 || report.GenCompleted != report.Offered {
		t.Fatalf("generation traffic did not all complete: %+v", report)
	}
	if report.TokensPerSec <= 0 || report.GenTokens < report.GenCompleted {
		t.Fatalf("generation throughput not reported: %+v", report)
	}
	if report.Verified != report.GenCompleted || report.Mismatches != 0 {
		t.Fatalf("dense-verified %d of %d generations, %d mismatches", report.Verified, report.GenCompleted, report.Mismatches)
	}
	st := eng.DecodeStats()
	if st.Prefills == 0 || st.Steps == 0 || st.CachedRows == 0 {
		t.Fatalf("decode counters not advancing: %+v", st)
	}
}
