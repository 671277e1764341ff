package main

import (
	"math"
	"math/rand"
	"sort"

	"rt3/internal/serve"
)

// workload is one closed-loop traffic mix: every client submits its
// next request when the previous reply arrives. Request counts are
// fixed per run length so two runs of one workload do identical work.
type workload struct {
	name, why string
	clients   int
	// requests the main phase sends in referenceSeconds on the host the
	// sizes were taken on; the run scales it by -seconds and -scale.
	requests           int
	promptLo, promptHi int // unshared prompt tokens, inclusive
	outLo, outHi       int // generated tokens, inclusive (EOS is off)

	// shared_prefix: prompts are one of sysPrompts system prompts of
	// splitAt tokens (weight 1/(k+1)) plus an unshared suffix, submitted
	// with GenOpts.SplitAt against a prefix cache of cacheRows rows.
	splitAt, sysPrompts, cacheRows int

	// dvfs_dance: after every switchEvery-th reply the controller calls
	// Server.SwitchTo along ladder (level indices, cycled). Steady
	// workloads leave ladder empty and stay at level 0.
	ladder      []int
	switchEvery int
}

// referenceSeconds is the main-phase length the request counts below
// were sized for on the 2-core host this benchmark was written on.
const referenceSeconds = 20

// warmupRequests precede the timed phase: they fill buffers, KV
// free-lists and the prefix cache, and are not measured.
const warmupRequests = 8

var workloads = []workload{
	{
		name:    "decode_heavy",
		why:     "short prompts, long outputs at l6: wall is DecodeStep at 1-8 rows over a growing KV cache; prefill is bypassed",
		clients: 8, requests: 120, promptLo: 16, promptHi: 16, outLo: 64, outHi: 192,
	},
	{
		name:    "prefill_heavy",
		why:     "long unshared prompts, 8-token outputs at l6: wall is fused Prefill over ~500 packed rows; decode and the prefix cache are bypassed",
		clients: 4, requests: 120, promptLo: 96, promptHi: 160, outLo: 8, outHi: 8,
	},
	{
		name:    "shared_prefix",
		why:     "6 system prompts of 160 tokens over a 700-row prefix cache: radix hits, inserts and LRU evictions all stay live",
		clients: 4, requests: 200, promptLo: 8, promptHi: 8, outLo: 16, outHi: 16,
		splitAt: 160, sysPrompts: 6, cacheRows: 700,
	},
	{
		name:    "dvfs_dance",
		why:     "12 clients over 8 slots with a level switch after every 2nd reply: reconfiguration beside inference at all three levels",
		clients: 12, requests: 220, promptLo: 16, promptHi: 96, outLo: 16, outHi: 64,
		ladder: []int{1, 2, 1, 0}, switchEvery: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// steady reports whether the workload stays at one level, so its
// outputs are a pure function of the seed.
func (w workload) steady() bool { return len(w.ladder) == 0 }

// count scales the main-phase request count to the run length.
func (w workload) count(seconds, scale float64) int {
	n := int(math.Round(float64(w.requests) * seconds / referenceSeconds * scale))
	if n < w.clients {
		n = w.clients
	}
	return n
}

// genRequest is one generated request; opts.MaxTokens is the exact
// number of tokens the reply must carry.
type genRequest struct {
	prompt []int
	opts   serve.GenOpts
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// spread returns n values evenly spaced over [lo, hi], ordered so that
// every run of about block consecutive requests spans the whole range
// and shuffled by the seed within each such run. Every seed sends the
// same multiset of lengths at an even mix over time, so run-to-run
// differences come from order and token values, not from total work.
func spread(lo, hi, n, block int, rng *rand.Rand) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (lo + hi) / 2
		if n > 1 {
			vals[i] = lo + int(math.Round(float64(i)*float64(hi-lo)/float64(n-1)))
		}
	}
	blocks := (n + block - 1) / block
	out := make([]int, 0, n)
	for b := 0; b < blocks; b++ {
		start := len(out)
		for i := b; i < n; i += blocks {
			out = append(out, vals[i])
		}
		run := out[start:]
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	}
	return out
}

// weighted returns n indices in [0, k) with index i taken in proportion
// to 1/(i+1): the counts are fixed by largest remainder, and the j-th of
// an index's c occurrences sits at the middle of the j-th of c equal
// stretches of the sequence. The order does not depend on the seed. A
// cache's hit share depends on the distance at which each index comes
// back: drawn at random per seed, the miss count of shared_prefix moved
// by 8% (one standard deviation) between seeds, and its throughput and
// peak memory with it, which is more than any change it should detect.
func weighted(k, n int) []int {
	var total float64
	for i := 0; i < k; i++ {
		total += 1 / float64(i+1)
	}
	type slot struct {
		at    float64
		index int
	}
	slots := make([]slot, 0, n)
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

// generate builds the untimed warm-up requests and the n timed ones as
// a pure function of (workload, seed, n, vocab); both draw on the same
// system prompts. EOS is disabled so every reply has exactly MaxTokens
// tokens.
func (w workload) generate(seed int64, n, vocab int) (warm, timed []genRequest) {
	rng := newRand(seed)
	tokens := func(k int) []int {
		t := make([]int, k)
		for i := range t {
			t[i] = rng.Intn(vocab)
		}
		return t
	}
	var sys [][]int
	for i := 0; i < w.sysPrompts; i++ {
		sys = append(sys, tokens(w.splitAt))
	}
	build := func(n int) []genRequest {
		promptLens := spread(w.promptLo, w.promptHi, n, 2*w.clients, rng)
		outLens := spread(w.outLo, w.outHi, n, 2*w.clients, rng)
		var pick []int
		if len(sys) > 0 {
			pick = weighted(len(sys), n)
		}
		reqs := make([]genRequest, n)
		for i := range reqs {
			r := genRequest{opts: serve.GenOpts{MaxTokens: outLens[i], EOS: -1}}
			if len(sys) > 0 {
				r.prompt = append(append([]int(nil), sys[pick[i]]...), tokens(promptLens[i])...)
				r.opts.SplitAt = w.splitAt
			} else {
				r.prompt = tokens(promptLens[i])
			}
			reqs[i] = r
		}
		return reqs
	}
	return build(warmupRequests), build(n)
}
