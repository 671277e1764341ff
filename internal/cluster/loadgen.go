package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"rt3/internal/metrics"
	"rt3/internal/serve"
)

// LoadSpec describes an open-loop, session-tagged generation workload
// against a router: arrivals at RPS (square-wave bursts optional) each
// pick one of Sessions long-lived sessions — a fixed prompt per session,
// so consecutive requests of a session exercise the affinity pin — and
// submit a generation with a sampled token budget.
type LoadSpec struct {
	Duration time.Duration
	// RPS is the base arrival rate (arrivals keep coming regardless of
	// how fast the cluster drains them — open loop).
	RPS float64
	// BurstPeriod, when > 0, multiplies the rate by BurstFactor (default
	// 3) during the second half of every period.
	BurstPeriod time.Duration
	BurstFactor float64

	// Sessions is the number of distinct session keys (default 64); each
	// gets one fixed prompt for the whole run.
	Sessions int
	// PromptMin/Max bound the per-session prompt lengths (default 4..12).
	PromptMin, PromptMax int
	// OutMin/Max bound the sampled per-request token budgets (default
	// 4..16).
	OutMin, OutMax int
	// Vocab shapes the synthetic prompts (default 24).
	Vocab int
	// EOS is the end-of-sequence token id passed through to the nodes
	// (0, the zero value, is remapped to -1: disabled — synthetic-token
	// workloads want deterministic budget-bounded lengths).
	EOS  int
	Seed int64

	// Cancel, when non-nil, ends the arrival phase early once closed;
	// in-flight requests are still awaited (graceful drain).
	Cancel <-chan struct{}

	// Verify recomputes every completed generation against the masked
	// dense reference at the level it was served on, token-for-token,
	// after the run. Valid because drains quiesce a node before any
	// level switch — no generation spans a switch — and failover resumes
	// replay bit-identically at the same level.
	Verify bool
	// VerifyNode picks whose engine computes the dense references
	// (default 0; any node with the same weights works).
	VerifyNode int
}

func (s LoadSpec) withDefaults() LoadSpec {
	if s.RPS <= 0 {
		s.RPS = 100
	}
	if s.BurstPeriod > 0 && s.BurstFactor <= 0 {
		s.BurstFactor = 3
	}
	if s.Sessions <= 0 {
		s.Sessions = 64
	}
	if s.PromptMin <= 0 {
		s.PromptMin = 4
	}
	if s.PromptMax < s.PromptMin {
		s.PromptMax = s.PromptMin + 8
	}
	if s.OutMin <= 0 {
		s.OutMin = 4
	}
	if s.OutMax < s.OutMin {
		s.OutMax = s.OutMin + 12
	}
	if s.Vocab <= 0 {
		s.Vocab = 24
	}
	if s.EOS == 0 {
		s.EOS = -1
	}
	return s
}

// LoadReport summarizes one cluster load run.
type LoadReport struct {
	Offered   int
	Completed int
	Dropped   int // shed with ErrQueueFull at the router
	Failed    int // responses that arrived with a non-nil error

	Elapsed      time.Duration
	GenTokens    int
	TokensPerSec float64
	// Wall-clock latency percentiles, submission to response delivery at
	// the router (failover attempts included).
	P50MS, P95MS, P99MS float64

	// Router counter deltas over the run, plus the derived hit rate.
	Stats           Stats
	AffinityHitRate float64

	Verified   int
	Mismatches int
}

// String renders the report in the repo's table style.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "offered %d  completed %d  dropped %d  failed %d  in %.2fs\n",
		r.Offered, r.Completed, r.Dropped, r.Failed, r.Elapsed.Seconds())
	fmt.Fprintf(&b, "generated %d tokens (%.0f tok/s)  latency p50 %.2f  p95 %.2f  p99 %.2f ms\n",
		r.GenTokens, r.TokensPerSec, r.P50MS, r.P95MS, r.P99MS)
	fmt.Fprintf(&b, "affinity: %.1f%% hit rate (%d hits, %d re-pins, %d pins)  failovers %d  rollouts %d\n",
		r.AffinityHitRate*100, r.Stats.AffinityHits, r.Stats.AffinityMisses,
		r.Stats.SessionPins, r.Stats.Failovers, r.Stats.Rollouts)
	if r.Verified > 0 {
		fmt.Fprintf(&b, "verified %d generations against dense references: %d mismatches\n",
			r.Verified, r.Mismatches)
	}
	return b.String()
}

// clusterResult is one awaited response with its request context.
type clusterResult struct {
	resp    serve.GenResponse
	wallMS  float64
	session int
	budget  int
}

// RunLoad replays the spec's session-tagged generation traffic against
// a started router, waits for every admitted request to deliver, and
// reports throughput, wall-clock latency percentiles, router affinity/
// failover counters (delta over the run), and (optionally) dense
// verification of every output. The router is left running.
func RunLoad(r *Router, spec LoadSpec) (*LoadReport, error) {
	spec = spec.withDefaults()
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("cluster: LoadSpec.Duration must be positive")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	prompts := make([][]int, spec.Sessions)
	for i := range prompts {
		n := spec.PromptMin + rng.Intn(spec.PromptMax-spec.PromptMin+1)
		p := make([]int, n)
		for j := range p {
			p[j] = rng.Intn(spec.Vocab)
		}
		prompts[i] = p
	}

	before := r.Stats()
	report := &LoadReport{}
	var (
		resMu   sync.Mutex
		results []clusterResult
		wg      sync.WaitGroup
	)
	start := time.Now()
	// sched is the arrival clock: virtual time advanced by the rate
	// profile, independent of wall-clock hiccups, so the arrival count
	// and every sampled request are a pure function of the spec — two
	// runs with the same seed offer the identical request sequence.
	sched := time.Duration(0)
arrivals:
	for {
		if spec.Cancel != nil {
			select {
			case <-spec.Cancel:
				break arrivals
			default:
			}
		}
		rps := spec.RPS
		if spec.BurstPeriod > 0 && sched%spec.BurstPeriod >= spec.BurstPeriod/2 {
			rps *= spec.BurstFactor
		}
		sched += time.Duration(float64(time.Second) / rps)
		if sched >= spec.Duration {
			break
		}
		if d := time.Until(start.Add(sched)); d > 0 {
			time.Sleep(d)
		}
		session := rng.Intn(spec.Sessions)
		budget := spec.OutMin + rng.Intn(spec.OutMax-spec.OutMin+1)
		report.Offered++
		t0 := time.Now()
		ch, err := r.SubmitGen(uint64(session), prompts[session], budget, spec.EOS)
		switch err {
		case nil:
			wg.Add(1)
			go func(session, budget int) {
				defer wg.Done()
				resp := <-ch
				res := clusterResult{
					resp:    resp,
					wallMS:  float64(time.Since(t0).Microseconds()) / 1000,
					session: session,
					budget:  budget,
				}
				resMu.Lock()
				results = append(results, res)
				resMu.Unlock()
			}(session, budget)
		case serve.ErrQueueFull:
			report.Dropped++
		default:
			return nil, err
		}
	}
	wg.Wait()
	report.Elapsed = time.Since(start)

	var lats []float64
	for _, res := range results {
		if res.resp.Err != nil {
			report.Failed++
			continue
		}
		report.Completed++
		report.GenTokens += len(res.resp.Tokens)
		lats = append(lats, res.wallMS)
	}
	report.TokensPerSec = float64(report.GenTokens) / report.Elapsed.Seconds()
	report.P50MS = metrics.Quantile(lats, 0.50)
	report.P95MS = metrics.Quantile(lats, 0.95)
	report.P99MS = metrics.Quantile(lats, 0.99)

	after := r.Stats()
	report.Stats = Stats{
		Dispatches:       after.Dispatches - before.Dispatches,
		AffinityHits:     after.AffinityHits - before.AffinityHits,
		AffinityMisses:   after.AffinityMisses - before.AffinityMisses,
		SessionPins:      after.SessionPins - before.SessionPins,
		Failovers:        after.Failovers - before.Failovers,
		Drops:            after.Drops - before.Drops,
		Rollouts:         after.Rollouts - before.Rollouts,
		Retries:          after.Retries - before.Retries,
		DeadlineExceeded: after.DeadlineExceeded - before.DeadlineExceeded,
		BreakerTrips:     after.BreakerTrips - before.BreakerTrips,
	}
	report.AffinityHitRate = report.Stats.AffinityHitRate()

	if spec.Verify {
		vn, err := r.node(spec.VerifyNode)
		if err != nil {
			return nil, err
		}
		refs := make(map[[3]int][]int)
		for _, res := range results {
			if res.resp.Err != nil {
				continue
			}
			key := [3]int{res.resp.Level, res.session, res.budget}
			ref, ok := refs[key]
			if !ok {
				ref, err = vn.Server().DenseGenReference(res.resp.Level, prompts[res.session], res.budget, spec.EOS)
				if err != nil {
					return nil, err
				}
				refs[key] = ref
			}
			report.Verified++
			if !slices.Equal(res.resp.Tokens, ref) {
				report.Mismatches++
			}
		}
	}
	return report, nil
}
