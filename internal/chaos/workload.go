package chaos

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/data"
	"rt3/internal/mat"
	"rt3/internal/metrics"
	"rt3/internal/serve"
)

// traceVersion is the TraceSpec format this build understands.
const traceVersion = 1

//go:embed testdata/*.json
var builtinTraces embed.FS

// RateBucket is one segment of a workload trace: hold RPS for
// DurationMS milliseconds.
type RateBucket struct {
	DurationMS int     `json:"duration_ms"`
	RPS        float64 `json:"rps"`
}

// TraceSpec is a versioned, trace-driven workload description: a
// piecewise-constant arrival-rate profile plus the mixed-traffic shape
// (what fraction classifies, how generation prompts and budgets are
// sampled, which GLUE task supplies classification examples). Builtin
// traces live in testdata/ and are compiled in via go:embed.
type TraceSpec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// ClassifyFraction of arrivals submit a GLUE classification example;
	// the rest open or continue generation sessions.
	ClassifyFraction float64      `json:"classify_fraction"`
	Sessions         int          `json:"sessions"`
	PromptMin        int          `json:"prompt_min"`
	PromptMax        int          `json:"prompt_max"`
	OutMin           int          `json:"out_min"`
	OutMax           int          `json:"out_max"`
	GlueTask         string       `json:"glue_task"`
	GlueExamples     int          `json:"glue_examples"`
	Buckets          []RateBucket `json:"buckets"`
}

// Duration sums the bucket windows.
func (t *TraceSpec) Duration() time.Duration {
	var ms int
	for _, b := range t.Buckets {
		ms += b.DurationMS
	}
	return time.Duration(ms) * time.Millisecond
}

// validate rejects malformed specs up front.
func (t *TraceSpec) validate() error {
	if t.Version != traceVersion {
		return fmt.Errorf("chaos: trace %q has version %d, this build reads %d", t.Name, t.Version, traceVersion)
	}
	if len(t.Buckets) == 0 {
		return fmt.Errorf("chaos: trace %q has no rate buckets", t.Name)
	}
	for i, b := range t.Buckets {
		if b.DurationMS <= 0 || b.RPS <= 0 {
			return fmt.Errorf("chaos: trace %q bucket %d: duration %dms rps %g must be positive", t.Name, i, b.DurationMS, b.RPS)
		}
	}
	if t.ClassifyFraction < 0 || t.ClassifyFraction > 1 {
		return fmt.Errorf("chaos: trace %q classify_fraction %g out of [0,1]", t.Name, t.ClassifyFraction)
	}
	if t.ClassifyFraction > 0 && t.GlueTask == "" {
		return fmt.Errorf("chaos: trace %q classifies but names no glue_task", t.Name)
	}
	return nil
}

// withDefaults fills the optional sampling knobs.
func (t *TraceSpec) withDefaults() {
	if t.Sessions <= 0 {
		t.Sessions = 24
	}
	if t.PromptMin <= 0 {
		t.PromptMin = 4
	}
	if t.PromptMax < t.PromptMin {
		t.PromptMax = t.PromptMin + 6
	}
	if t.OutMin <= 0 {
		t.OutMin = 4
	}
	if t.OutMax < t.OutMin {
		t.OutMax = t.OutMin + 8
	}
	if t.GlueExamples <= 0 {
		t.GlueExamples = 32
	}
}

// ParseTrace decodes and validates a versioned trace spec.
func ParseTrace(b []byte) (*TraceSpec, error) {
	var t TraceSpec
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("chaos: parse trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.withDefaults()
	return &t, nil
}

// BuiltinTraces lists the embedded workload traces.
func BuiltinTraces() []string {
	entries, _ := builtinTraces.ReadDir("testdata")
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// LoadBuiltinTrace returns an embedded trace by name.
func LoadBuiltinTrace(name string) (*TraceSpec, error) {
	b, err := builtinTraces.ReadFile("testdata/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("chaos: unknown builtin trace %q (have %v)", name, BuiltinTraces())
	}
	return ParseTrace(b)
}

// WorkloadConfig binds a trace spec to a running router.
type WorkloadConfig struct {
	Router *cluster.Router
	Spec   *TraceSpec
	Seed   int64
	// Vocab bounds generation prompt tokens (default 48, matching the
	// GLUE vocabulary so one deployment serves both traffic kinds).
	Vocab int
	// TimeScale stretches (>1) or compresses (<1) every bucket window.
	TimeScale float64
	// Cancel, when non-nil, ends the arrival phase early once closed.
	Cancel <-chan struct{}
	// Verify dense-checks every completed response — generations
	// token-for-token against DenseGenReference, classifications
	// element-wise against DenseReference — on VerifyNode's engine.
	Verify     bool
	VerifyNode int
}

// WorkloadReport is the measured side of a chaos run.
type WorkloadReport struct {
	Trace   string        `json:"trace"`
	Offered int           `json:"offered"`
	Elapsed time.Duration `json:"elapsed"`

	GenOffered   int `json:"gen_offered"`
	GenCompleted int `json:"gen_completed"`
	ClsOffered   int `json:"cls_offered"`
	ClsCompleted int `json:"cls_completed"`

	// Shed counts bounded load-shedding (queue full, no ready nodes,
	// deadline exceeded) — visible, accounted rejections. Failed counts
	// everything else: responses the cluster accepted and then lost.
	// The chaos floor is Failed == 0.
	Shed   int `json:"shed"`
	Failed int `json:"failed"`

	GenTokens    int     `json:"gen_tokens"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`

	Verified   int `json:"verified"`
	Mismatches int `json:"mismatches"`

	// ResponseHash is an order-independent digest of every completed
	// response's identity and content. For a level-stable schedule two
	// same-seed runs must produce equal hashes (with Shed == 0).
	ResponseHash uint64 `json:"response_hash"`
}

// Completed sums both traffic kinds.
func (r *WorkloadReport) Completed() int { return r.GenCompleted + r.ClsCompleted }

// String renders the report in the repo's table style.
func (r *WorkloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: offered %d (gen %d, cls %d)  completed %d  shed %d  failed %d  in %.2fs\n",
		r.Trace, r.Offered, r.GenOffered, r.ClsOffered, r.Completed(), r.Shed, r.Failed, r.Elapsed.Seconds())
	fmt.Fprintf(&b, "generated %d tokens (%.0f tok/s)  latency p50 %.2f  p95 %.2f  p99 %.2f ms\n",
		r.GenTokens, r.TokensPerSec, r.P50MS, r.P95MS, r.P99MS)
	if r.Verified > 0 {
		fmt.Fprintf(&b, "dense-verified %d responses: %d mismatches\n", r.Verified, r.Mismatches)
	}
	return b.String()
}

// clsKeyBase keeps classification routing keys disjoint from the
// generation session space (and from chaff).
const clsKeyBase uint64 = 1 << 24

// genResult is one awaited generation with its request identity.
type genResult struct {
	resp    serve.GenResponse
	wallMS  float64
	session int
	budget  int
}

// clsResult is one awaited classification with its example identity.
type clsResult struct {
	resp   serve.Response
	wallMS float64
	exIdx  int
}

// RunWorkload replays the trace's mixed traffic against a started
// router: arrivals ride a virtual clock over the rate buckets, so the
// request sequence — kinds, sessions, budgets, examples — is a pure
// function of (spec, seed) no matter what faults land mid-run. Every
// admitted request is awaited; the router is left running.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
	if cfg.Router == nil || cfg.Spec == nil {
		return nil, fmt.Errorf("chaos: RunWorkload needs a router and a trace spec")
	}
	spec := *cfg.Spec
	spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	vocab := cfg.Vocab
	if vocab <= 0 {
		vocab = 48
	}
	duration := time.Duration(float64(spec.Duration()) * scale)

	rng := rand.New(rand.NewSource(cfg.Seed))
	prompts := make([][]int, spec.Sessions)
	for i := range prompts {
		n := spec.PromptMin + rng.Intn(spec.PromptMax-spec.PromptMin+1)
		p := make([]int, n)
		for j := range p {
			p[j] = 1 + rng.Intn(vocab-1) // 0 is the GLUE separator; skip it
		}
		prompts[i] = p
	}
	var pool []data.Example
	if spec.ClassifyFraction > 0 {
		task := data.GenerateTask(spec.GlueTask, 0, spec.GlueExamples, cfg.Seed+1)
		pool = task.Eval
	}

	report := &WorkloadReport{Trace: spec.Name}
	var (
		mu   sync.Mutex
		gens []genResult
		clss []clsResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	// sched is the virtual arrival clock (same discipline as the load
	// generators): rate comes from the bucket the virtual time is in,
	// so wall-clock stalls never change what gets offered.
	sched := time.Duration(0)
arrivals:
	for {
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				break arrivals
			default:
			}
		}
		rps := bucketRPS(&spec, sched, scale)
		sched += time.Duration(float64(time.Second) / rps)
		if sched >= duration {
			break
		}
		if d := time.Until(start.Add(sched)); d > 0 {
			time.Sleep(d)
		}
		report.Offered++
		t0 := time.Now()
		if rng.Float64() < spec.ClassifyFraction {
			exIdx := rng.Intn(len(pool))
			report.ClsOffered++
			ch, err := cfg.Router.Submit(clsKeyBase+uint64(exIdx), pool[exIdx].Tokens)
			switch {
			case err == nil:
				wg.Add(1)
				go func(exIdx int) {
					defer wg.Done()
					resp := <-ch
					mu.Lock()
					clss = append(clss, clsResult{resp: resp, wallMS: msSince(t0), exIdx: exIdx})
					mu.Unlock()
				}(exIdx)
			case shedErr(err):
				report.Shed++
			default:
				return nil, err
			}
		} else {
			session := rng.Intn(spec.Sessions)
			budget := spec.OutMin + rng.Intn(spec.OutMax-spec.OutMin+1)
			report.GenOffered++
			ch, err := cfg.Router.SubmitGen(uint64(session), prompts[session], budget, -1)
			switch {
			case err == nil:
				wg.Add(1)
				go func(session, budget int) {
					defer wg.Done()
					resp := <-ch
					mu.Lock()
					gens = append(gens, genResult{resp: resp, wallMS: msSince(t0), session: session, budget: budget})
					mu.Unlock()
				}(session, budget)
			case shedErr(err):
				report.Shed++
			default:
				return nil, err
			}
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)

	var lats []float64
	for _, g := range gens {
		if g.resp.Err != nil {
			if shedErr(g.resp.Err) {
				report.Shed++
			} else {
				report.Failed++
			}
			continue
		}
		report.GenCompleted++
		report.GenTokens += len(g.resp.Tokens)
		report.ResponseHash ^= hashGen(g)
		lats = append(lats, g.wallMS)
	}
	for _, c := range clss {
		if c.resp.Err != nil {
			if shedErr(c.resp.Err) {
				report.Shed++
			} else {
				report.Failed++
			}
			continue
		}
		report.ClsCompleted++
		report.ResponseHash ^= hashCls(c)
		lats = append(lats, c.wallMS)
	}
	report.TokensPerSec = float64(report.GenTokens) / report.Elapsed.Seconds()
	report.P50MS = metrics.Quantile(lats, 0.50)
	report.P95MS = metrics.Quantile(lats, 0.95)
	report.P99MS = metrics.Quantile(lats, 0.99)

	if cfg.Verify {
		nodes := cfg.Router.Nodes()
		if cfg.VerifyNode < 0 || cfg.VerifyNode >= len(nodes) {
			return nil, fmt.Errorf("chaos: verify node %d out of range %d", cfg.VerifyNode, len(nodes))
		}
		srv := nodes[cfg.VerifyNode].Server()
		genRefs := map[[3]int][]int{}
		for _, g := range gens {
			if g.resp.Err != nil {
				continue
			}
			key := [3]int{g.resp.Level, g.session, g.budget}
			ref, ok := genRefs[key]
			if !ok {
				var err error
				ref, err = srv.DenseGenReference(g.resp.Level, prompts[g.session], g.budget, -1)
				if err != nil {
					return nil, err
				}
				genRefs[key] = ref
			}
			report.Verified++
			if !slices.Equal(g.resp.Tokens, ref) {
				report.Mismatches++
			}
		}
		clsRefs := map[[2]int]*mat.Matrix{}
		for _, c := range clss {
			if c.resp.Err != nil {
				continue
			}
			key := [2]int{c.resp.Level, c.exIdx}
			ref, ok := clsRefs[key]
			if !ok {
				var err error
				ref, err = srv.DenseReference(c.resp.Level, pool[c.exIdx].Tokens)
				if err != nil {
					return nil, err
				}
				clsRefs[key] = ref
			}
			report.Verified++
			if !mat.Equal(c.resp.Out, ref, 1e-9) {
				report.Mismatches++
			}
		}
	}
	return report, nil
}

// bucketRPS resolves the arrival rate at virtual time sched, with each
// bucket window stretched by scale. Past the last bucket (only
// reachable by rounding) the final rate holds.
func bucketRPS(spec *TraceSpec, sched time.Duration, scale float64) float64 {
	var edge time.Duration
	for _, b := range spec.Buckets {
		edge += time.Duration(float64(b.DurationMS) * float64(time.Millisecond) * scale)
		if sched < edge {
			return b.RPS
		}
	}
	return spec.Buckets[len(spec.Buckets)-1].RPS
}

// hashGen digests one completed generation: identity plus every token.
func hashGen(g genResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "gen|%d|%d|%d|", g.session, g.budget, g.resp.Level)
	for _, tok := range g.resp.Tokens {
		fmt.Fprintf(h, "%d,", tok)
	}
	return h.Sum64()
}

// hashCls digests one completed classification: example identity, the
// served level, and the argmax prediction (the decision the response
// exists to deliver; the full logits are covered by dense verification).
func hashCls(c clsResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cls|%d|%d|%d", c.exIdx, c.resp.Level, c.resp.Out.ArgmaxRow(0))
	return h.Sum64()
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}
