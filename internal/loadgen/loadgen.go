// Package loadgen is the one open-loop load driver every run-time claim
// of this reproduction is judged under. RT3's promise is behaviour while
// conditions change — pattern sets swapped per V/F level with requests
// still arriving — so the governor, RL and closed-loop arms, cluster
// rollout and failover, and the chaos fault matrix must all face the
// same traffic model: arrivals on a virtual clock advanced by a rate
// profile (never by how fast the target drains), a seeded mix of
// classifications over a token-sequence pool and session-keyed
// generations, one shed-vs-failed rule, and one dense re-check of every
// completed response. The offered sequence is a pure function of
// (Spec, Seed); the target is anything with the router's two submit
// methods, which is also what lets a test drive a fake.
package loadgen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/mat"
	"rt3/internal/metrics"
	"rt3/internal/serve"
)

// Submitter is the target of a run: *cluster.Router as is, a single
// *serve.Server through Keyless.
type Submitter interface {
	Submit(key uint64, tokens []int) (<-chan serve.Response, error)
	SubmitGen(key uint64, prompt []int, maxTokens, eos int) (<-chan serve.GenResponse, error)
}

// Keyless adapts one server to Submitter: with no fleet to place a
// request on, the routing key is dropped.
func Keyless(s *serve.Server) Submitter { return keyless{s} }

type keyless struct{ s *serve.Server }

func (k keyless) Submit(_ uint64, tokens []int) (<-chan serve.Response, error) {
	return k.s.Submit(tokens)
}

func (k keyless) SubmitGen(_ uint64, prompt []int, maxTokens, eos int) (<-chan serve.GenResponse, error) {
	return k.s.SubmitGen(prompt, maxTokens, eos)
}

// Rate is an arrival-rate profile: requests per second at virtual time
// at. Run reads it once per arrival to space the next one.
type Rate func(at time.Duration) float64

// Ramp moves linearly from start to end req/s over the given window
// (equal ends are a flat rate).
func Ramp(start, end float64, over time.Duration) Rate {
	return func(at time.Duration) float64 {
		return start + (end-start)*(float64(at)/float64(over))
	}
}

// SquareWave multiplies base by factor during the second half of every
// period — alternating calm and pressured phases, the regime a closed-
// loop controller has to ride. A factor in (0, 1) is an anti-burst; a
// non-positive one means 3, and a non-positive period means no bursts.
func SquareWave(base Rate, period time.Duration, factor float64) Rate {
	if period <= 0 {
		return base
	}
	if factor <= 0 {
		factor = 3
	}
	return func(at time.Duration) float64 {
		rps := base(at)
		if at%period >= period/2 {
			rps *= factor
		}
		return rps
	}
}

// Bucket is one segment of a piecewise-constant profile: hold RPS for
// the duration For.
type Bucket struct {
	For time.Duration
	RPS float64
}

// Buckets holds each bucket's rate for its window stretched by scale.
// Past the last bucket (only reachable by rounding) the final rate
// holds.
func Buckets(buckets []Bucket, scale float64) Rate {
	return func(at time.Duration) float64 {
		var edge time.Duration
		for _, b := range buckets {
			edge += time.Duration(float64(b.For) * scale)
			if at < edge {
				return b.RPS
			}
		}
		return buckets[len(buckets)-1].RPS
	}
}

// Fixed request shape: generations never stop early (synthetic tokens
// want budget-bounded lengths), classification keys stay clear of the
// session space (and of chaos chaff), and a dense re-check tolerates
// only accumulation-order noise.
const (
	eos                 = -1
	clsKeyBase   uint64 = 1 << 24
	clsTolerance        = 1e-9
)

// Spec describes one run. There are no defaults: Run rejects a spec it
// cannot drive rather than guessing.
type Spec struct {
	// Duration is the arrival window in virtual time; Rate the profile
	// over it.
	Duration time.Duration
	Rate     Rate
	Seed     int64
	// Cancel, when closed, ends the arrival phase early — the graceful
	// drain: offering stops, every admitted request is still awaited, and
	// the report covers what ran.
	Cancel <-chan struct{}

	// ClassifyFraction of arrivals submit a sequence drawn from Pool; the
	// rest open or continue one of Sessions generation sessions.
	ClassifyFraction float64
	Pool             [][]int

	// Each session keeps one prompt for the whole run — PromptMin to
	// PromptMax tokens from [1, Vocab) (0 is the GLUE separator) — so its
	// repeats exercise the affinity pin; every arrival samples a token
	// budget in [OutMin, OutMax].
	Sessions             int
	PromptMin, PromptMax int
	OutMin, OutMax       int
	Vocab                int

	// Verify, when non-nil, is the server whose engine recomputes every
	// completed response by masked dense execution at the level it was
	// served on: generations token for token (valid while no generation
	// spans a level switch), classifications within 1e-9 per element.
	Verify *serve.Server
}

func (s *Spec) validate() error {
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("loadgen: duration %s must be positive", s.Duration)
	case s.Rate == nil:
		return errors.New("loadgen: spec has no rate profile")
	case !(s.ClassifyFraction >= 0 && s.ClassifyFraction <= 1):
		return fmt.Errorf("loadgen: classify fraction %g out of [0,1]", s.ClassifyFraction)
	case s.ClassifyFraction > 0 && len(s.Pool) == 0:
		return errors.New("loadgen: spec classifies but has an empty pool")
	case s.ClassifyFraction == 1 && s.Sessions == 0:
		return nil
	case s.Sessions < 1 || s.Vocab < 2:
		return fmt.Errorf("loadgen: generations need sessions >= 1 and vocab >= 2, got %d and %d", s.Sessions, s.Vocab)
	case s.PromptMin < 1 || s.PromptMax < s.PromptMin || s.OutMin < 1 || s.OutMax < s.OutMin:
		return fmt.Errorf("loadgen: prompt range [%d,%d] and budget range [%d,%d] must be ascending and positive",
			s.PromptMin, s.PromptMax, s.OutMin, s.OutMax)
	}
	return nil
}

// TokenPool is the synthetic classification pool: 32 seeded sequences of
// seqLen tokens below vocab — small, so post-hoc verification stays
// cheap.
func TokenPool(seed int64, seqLen, vocab int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]int, 32)
	for i := range pool {
		pool[i] = make([]int, seqLen)
		for j := range pool[i] {
			pool[i][j] = rng.Intn(vocab)
		}
	}
	return pool
}

// Report is the measured side of a run.
type Report struct {
	Offered int           `json:"offered"`
	Elapsed time.Duration `json:"elapsed"`

	GenOffered   int `json:"gen_offered"`
	GenCompleted int `json:"gen_completed"`
	ClsOffered   int `json:"cls_offered"`
	ClsCompleted int `json:"cls_completed"`

	// Shed counts bounded load-shedding (queue full, no ready nodes,
	// deadline exceeded) — visible, accounted rejections, at submission
	// or in the response. Failed counts everything else: responses the
	// target accepted and then lost.
	Shed   int `json:"shed"`
	Failed int `json:"failed"`

	GenTokens    int     `json:"gen_tokens"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	// Wall-clock latency percentiles of completed requests, submission to
	// response delivery (retries and failover attempts included).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	Verified   int `json:"verified"`
	Mismatches int `json:"mismatches"`

	// ResponseHash is an order-independent digest of every completed
	// response's identity and content. While the served level is stable
	// two same-seed runs must produce equal hashes (with Shed == 0).
	ResponseHash uint64 `json:"response_hash"`
}

// Completed sums both traffic kinds.
func (r *Report) Completed() int { return r.GenCompleted + r.ClsCompleted }

// String renders the report in the repo's table style.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d (gen %d, cls %d)  completed %d  shed %d  failed %d  in %.2fs (%.1f req/s)\n",
		r.Offered, r.GenOffered, r.ClsOffered, r.Completed(), r.Shed, r.Failed,
		r.Elapsed.Seconds(), float64(r.Completed())/r.Elapsed.Seconds())
	if r.GenTokens > 0 {
		fmt.Fprintf(&b, "generated %d tokens (%.0f tok/s)  ", r.GenTokens, r.TokensPerSec)
	}
	fmt.Fprintf(&b, "latency p50 %.2f  p95 %.2f  p99 %.2f ms\n", r.P50MS, r.P95MS, r.P99MS)
	if r.Verified > 0 {
		fmt.Fprintf(&b, "dense-verified %d responses: %d mismatches\n", r.Verified, r.Mismatches)
	}
	return b.String()
}

// IsShed classifies an error as bounded load-shedding (accounted,
// acceptable under pressure) rather than a lost response.
func IsShed(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, cluster.ErrNoReadyNodes) ||
		errors.Is(err, cluster.ErrDeadlineExceeded)
}

// result is one awaited response with its request identity: idx is the
// session of a generation, the pool index of a classification, and in
// the prompt or sequence that was submitted.
type result struct {
	gen    bool
	idx    int
	in     []int
	budget int
	wallMS float64

	level  int
	err    error
	tokens []int
	out    *mat.Matrix
}

// Run offers the spec's traffic to a started target, waits for every
// admitted request to deliver, and reports counts, throughput, latency
// percentiles and (optionally) dense verification. Arrivals ride a
// virtual clock advanced by the rate profile rather than by wall-clock
// reads, so the arrival count and every sampled request — kinds, keys,
// prompts, budgets — are the same whether or not the target stalls the
// submitting goroutine or faults land mid-run. The target is left
// running.
func Run(sub Submitter, spec Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	prompts := make([][]int, spec.Sessions)
	for i := range prompts {
		p := make([]int, spec.PromptMin+rng.Intn(spec.PromptMax-spec.PromptMin+1))
		for j := range p {
			p[j] = 1 + rng.Intn(spec.Vocab-1)
		}
		prompts[i] = p
	}

	report := &Report{}
	var (
		mu      sync.Mutex
		results []result
		wg      sync.WaitGroup
		runErr  error
	)
	deliver := func(res result, t0 time.Time) {
		res.wallMS = float64(time.Since(t0).Microseconds()) / 1000
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
		wg.Done()
	}
	start := time.Now()
	sched := time.Duration(0) // the virtual arrival clock
arrivals:
	for {
		select {
		case <-spec.Cancel:
			break arrivals
		default:
		}
		rps := spec.Rate(sched)
		gap := float64(time.Second) / rps
		if !(gap >= 1 && gap < math.MaxInt64) {
			runErr = fmt.Errorf("loadgen: rate %g req/s at %s gives no usable arrival gap", rps, sched)
			break
		}
		step := time.Duration(gap)
		if step >= spec.Duration-sched {
			break
		}
		sched += step
		if d := time.Until(start.Add(sched)); d > 0 {
			time.Sleep(d)
		}
		report.Offered++
		t0 := time.Now()
		var err error
		if rng.Float64() < spec.ClassifyFraction {
			idx := rng.Intn(len(spec.Pool))
			report.ClsOffered++
			var ch <-chan serve.Response
			if ch, err = sub.Submit(clsKeyBase+uint64(idx), spec.Pool[idx]); err == nil {
				wg.Add(1)
				go func() {
					r := <-ch
					deliver(result{idx: idx, in: spec.Pool[idx], level: r.Level, err: r.Err, out: r.Out}, t0)
				}()
			}
		} else {
			session := rng.Intn(spec.Sessions)
			budget := spec.OutMin + rng.Intn(spec.OutMax-spec.OutMin+1)
			report.GenOffered++
			var ch <-chan serve.GenResponse
			if ch, err = sub.SubmitGen(uint64(session), prompts[session], budget, eos); err == nil {
				wg.Add(1)
				go func() {
					r := <-ch
					deliver(result{gen: true, idx: session, in: prompts[session], budget: budget, level: r.Level, err: r.Err, tokens: r.Tokens}, t0)
				}()
			}
		}
		switch {
		case err == nil:
		case IsShed(err):
			report.Shed++
		default:
			runErr = fmt.Errorf("loadgen: arrival %d refused: %w", report.Offered, err)
			break arrivals
		}
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	report.Elapsed = time.Since(start)

	refs := denseRefs{srv: spec.Verify, seen: map[refKey]result{}}
	lats := make([]float64, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			if IsShed(res.err) {
				report.Shed++
			} else {
				report.Failed++
			}
			continue
		}
		lats = append(lats, res.wallMS)
		report.ResponseHash ^= res.hash()
		if res.gen {
			report.GenCompleted++
			report.GenTokens += len(res.tokens)
		} else {
			report.ClsCompleted++
		}
		if spec.Verify != nil {
			ok, err := refs.matches(res)
			if err != nil {
				return nil, err
			}
			report.Verified++
			if !ok {
				report.Mismatches++
			}
		}
	}
	report.TokensPerSec = float64(report.GenTokens) / report.Elapsed.Seconds()
	report.P50MS = metrics.Quantile(lats, 0.50)
	report.P95MS = metrics.Quantile(lats, 0.95)
	report.P99MS = metrics.Quantile(lats, 0.99)
	return report, nil
}

// denseRefs caches the masked dense reference of each distinct request
// at each level it was served on, so a run recomputes a few dozen
// references rather than one per response.
type denseRefs struct {
	srv  *serve.Server
	seen map[refKey]result
}

type refKey struct {
	gen                bool
	level, idx, budget int
}

// matches reports whether res equals masked dense execution of its
// request at the level it was served on.
func (d denseRefs) matches(res result) (bool, error) {
	key := refKey{res.gen, res.level, res.idx, res.budget}
	ref, ok := d.seen[key]
	if !ok {
		var err error
		if res.gen {
			ref.tokens, err = d.srv.DenseGenReference(res.level, res.in, res.budget, eos)
		} else {
			ref.out, err = d.srv.DenseReference(res.level, res.in)
		}
		if err != nil {
			return false, err
		}
		d.seen[key] = ref
	}
	if res.gen {
		return slices.Equal(res.tokens, ref.tokens), nil
	}
	return mat.Equal(res.out, ref.out, clsTolerance), nil
}

// hash digests one completed response. A generation: identity plus every
// token. A classification: example identity, the served level, and the
// argmax prediction (the decision the response exists to deliver; the
// full logits are covered by dense verification).
func (res result) hash() uint64 {
	h := fnv.New64a()
	if !res.gen {
		fmt.Fprintf(h, "cls|%d|%d|%d", res.idx, res.level, res.out.ArgmaxRow(0))
		return h.Sum64()
	}
	fmt.Fprintf(h, "gen|%d|%d|%d|", res.idx, res.budget, res.level)
	for _, tok := range res.tokens {
		fmt.Fprintf(h, "%d,", tok)
	}
	return h.Sum64()
}
