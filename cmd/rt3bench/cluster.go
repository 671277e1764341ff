package main

import (
	"fmt"
	"math/rand"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/deploy"
	"rt3/internal/loadgen"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// clusterBenchSpec shapes the sharded-serving benchmark: the scaling
// arms replay one bursty session-tagged generation profile against 1, 2,
// and 4 nodes whose per-step compute capacity is pinned by stepFloor (so
// aggregate throughput is set by node count, not host jitter), then a
// rollout phase switches levels under load with dense verification and a
// failover phase crashes a node mid-generation.
type clusterBenchSpec struct {
	nodes       []int // scaling arms (node counts), ascending
	duration    time.Duration
	rps         float64
	burstPeriod time.Duration
	burstFactor float64
	sessions    int
	stepFloor   time.Duration
	policy      string
	seed        int64
}

// clusterArm is one scored scaling contender.
type clusterArm struct {
	nodes     int
	report    *loadgen.Report
	stats     cluster.Stats // the arm's fresh router after the run
	decisions int
	metrics   map[string]float64 // cluster registry snapshot, -json runs only
}

// clusterScaleFloor is the enforced aggregate-throughput ratio between
// the largest and smallest scaling arm, and clusterAffinityFloor the
// enforced session-affinity hit rate. Both come from the subsystem's
// contract: with per-node capacity pinned by the step floor, a 4-node
// fleet must push >= 1.8x one saturated node, and pinned sessions must
// almost never migrate.
const (
	clusterScaleFloor    = 1.8
	clusterAffinityFloor = 0.95
)

// runClusterBench runs the scaling arms, the zero-downtime rollout
// phase, and the crash-failover phase, replay-verifies every router
// trace, and fails when a floor is missed.
func runClusterBench(spec clusterBenchSpec) error {
	fmt.Printf("bursty profile: %.0f req/s base, %.0fx bursts every %s, %s of arrivals; %d sessions, step floor %s, %s router\n\n",
		spec.rps, spec.burstFactor, spec.burstPeriod, spec.duration, spec.sessions, spec.stepFloor, spec.policy)

	var arms []clusterArm
	for _, n := range spec.nodes {
		arm, err := runClusterArm(spec, n)
		if err != nil {
			return err
		}
		arms = append(arms, arm)
	}

	fmt.Printf("%-6s %8s %10s %8s %7s %10s %8s %8s %9s %10s\n",
		"nodes", "offered", "completed", "dropped", "failed", "tok_per_s", "p50_ms", "p99_ms", "affinity", "decisions")
	for _, a := range arms {
		fmt.Printf("%-6d %8d %10d %8d %7d %10.0f %8.2f %8.2f %8.1f%% %10d\n",
			a.nodes, a.report.Offered, a.report.Completed(), a.report.Shed, a.report.Failed,
			a.report.TokensPerSec, a.report.P50MS, a.report.P99MS,
			a.stats.AffinityHitRate()*100, a.decisions)
	}

	first, last := arms[0], arms[len(arms)-1]
	speedup := 0.0
	if first.report.TokensPerSec > 0 {
		speedup = last.report.TokensPerSec / first.report.TokensPerSec
	}
	fmt.Printf("\naggregate throughput: %d nodes push %.2fx the tokens of %d node(s) under the same burst\n",
		last.nodes, speedup, first.nodes)

	rollout, err := runClusterRollout(spec, last.nodes)
	if err != nil {
		return err
	}
	failover, err := runClusterFailover(spec)
	if err != nil {
		return err
	}

	if jsonRep != nil {
		section := &clusterSection{
			Policy:      spec.policy,
			StepFloorMS: float64(spec.stepFloor.Microseconds()) / 1000,
			SpeedupX:    speedup,
			Rollout:     rollout,
			Failover:    failover,
			Metrics:     last.metrics,
		}
		for _, a := range arms {
			section.Scaling = append(section.Scaling, clusterArmRow{
				Nodes:        a.nodes,
				Offered:      a.report.Offered,
				Completed:    a.report.Completed(),
				Dropped:      a.report.Shed,
				Failed:       a.report.Failed,
				TokensPerSec: a.report.TokensPerSec,
				P50MS:        a.report.P50MS,
				P99MS:        a.report.P99MS,
				AffinityRate: a.stats.AffinityHitRate(),
				Decisions:    a.decisions,
			})
		}
		jsonRep.Cluster = section
	}

	// enforced floors
	for _, a := range arms {
		if a.report.Failed > 0 {
			return fmt.Errorf("%d-node arm delivered %d failed responses", a.nodes, a.report.Failed)
		}
		if a.stats.AffinityHitRate() < clusterAffinityFloor {
			return fmt.Errorf("%d-node arm affinity hit rate %.1f%% fell below %.0f%%",
				a.nodes, a.stats.AffinityHitRate()*100, clusterAffinityFloor*100)
		}
	}
	if len(arms) > 1 && spec.stepFloor > 0 && speedup < clusterScaleFloor {
		return fmt.Errorf("aggregate throughput scaled %.2fx from %d to %d nodes, below the %.1fx floor",
			speedup, first.nodes, last.nodes, clusterScaleFloor)
	}
	return nil
}

// clusterModel is the rt3serve generation deployment at bench scale.
var clusterModelCfg = transformer.Config{
	Vocab: 24, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
}

var (
	clusterLevelNames = []string{"l6", "l4", "l3"}
	clusterSparsities = []float64{0.3, 0.5, 0.7}
)

// buildFleet stands up n generation nodes of the given model shape —
// identical weights and pattern sets, every node built from the same
// seed, which is what makes cross-node failover replay and shared dense
// references valid — behind a started router.
func buildFleet(model transformer.Config, seed int64, n int, srvCfg serve.Config, rcfg cluster.Config) (*cluster.Router, func(), error) {
	nodes := make([]*cluster.Node, n)
	var closers []func()
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := range nodes {
		rng := rand.New(rand.NewSource(seed))
		lm := transformer.NewLMModel(model, rng)
		ref := lm.PrunableLinears()[0].W.Value
		var sets []*pattern.Set
		for _, sp := range clusterSparsities {
			sets = append(sets, pattern.GenerateSet(ref, 4, sp, 3, rng))
		}
		data, err := serve.BundleFromModel(lm, sets, clusterLevelNames).Encode()
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		bundle, err := deploy.Decode(data)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		eng, err := serve.NewEngine(bundle, []serve.Model{lm.Clone()}, rtswitch.DefaultSwitchCostModel())
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		closers = append(closers, eng.Close)
		nodes[i] = cluster.NewNode(i, serve.New(eng, srvCfg))
	}
	r := cluster.New(nodes, rcfg)
	r.Start()
	return r, cleanup, nil
}

// buildClusterRouter is the cluster bench's fleet: the spec's policy and
// seed, with stepFloor pinning each node's per-step wall time (the
// capacity knob).
func buildClusterRouter(spec clusterBenchSpec, n int, stepFloor time.Duration) (*cluster.Router, func(), error) {
	pol, err := cluster.NewPolicy(spec.policy)
	if err != nil {
		return nil, nil, err
	}
	return buildFleet(clusterModelCfg, spec.seed, n, serve.Config{
		MaxBatch: 8, QueueCap: 8192,
		Generate: true, MaxGenTokens: 32, StepFloor: stepFloor,
	}, cluster.Config{Policy: pol, Seed: spec.seed})
}

// clusterLoad is the shared session-tagged profile at the given base
// rate; every phase varies only the rate (and verification) around it so
// the arms stay comparable.
func clusterLoad(spec clusterBenchSpec, rps float64, verify *serve.Server) loadgen.Spec {
	return loadgen.Spec{
		Duration:  spec.duration,
		Rate:      loadgen.SquareWave(loadgen.Ramp(rps, rps, spec.duration), spec.burstPeriod, spec.burstFactor),
		Seed:      spec.seed,
		Sessions:  spec.sessions,
		PromptMin: 4, PromptMax: 8,
		OutMin: 6, OutMax: 10,
		Vocab:  clusterModelCfg.Vocab,
		Verify: verify,
	}
}

// runClusterArm replays the profile against an n-node fleet and
// replay-verifies its router trace.
func runClusterArm(spec clusterBenchSpec, n int) (clusterArm, error) {
	r, cleanup, err := buildClusterRouter(spec, n, spec.stepFloor)
	if err != nil {
		return clusterArm{}, err
	}
	defer cleanup()
	defer r.Stop()
	rep, err := loadgen.Run(r, clusterLoad(spec, spec.rps, nil))
	if err != nil {
		return clusterArm{}, fmt.Errorf("%d nodes: %w", n, err)
	}
	decisions, err := replayClusterTrace(r, fmt.Sprintf("%d-node arm", n))
	if err != nil {
		return clusterArm{}, err
	}
	arm := clusterArm{nodes: n, report: rep, stats: r.Stats(), decisions: decisions}
	if jsonRep != nil {
		arm.metrics = r.Metrics().Snapshot()
	}
	return arm, nil
}

// runClusterRollout drives the zero-downtime maintenance story: under
// live load the fleet is drained node by node and switched to the
// slowest level, and every delivered generation must dense-verify at the
// level it was served on — possible precisely because a drain quiesces a
// node before its switch, so no generation spans one.
func runClusterRollout(spec clusterBenchSpec, n int) (*clusterPhaseRow, error) {
	r, cleanup, err := buildClusterRouter(spec, n, spec.stepFloor)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer r.Stop()

	level := r.Nodes()[0].Server().Engine().NumLevels() - 1
	rolloutDone := make(chan error, 1)
	go func() {
		time.Sleep(spec.duration / 3)
		rolloutDone <- r.RolloutSwitch(level)
	}()
	// half the rate for headroom: one node is always draining
	rep, err := loadgen.Run(r, clusterLoad(spec, spec.rps/2, r.Nodes()[0].Server()))
	if err != nil {
		return nil, fmt.Errorf("rollout phase: %w", err)
	}
	st := r.Stats()
	if err := <-rolloutDone; err != nil {
		return nil, fmt.Errorf("rollout phase: %w", err)
	}
	if _, err := replayClusterTrace(r, "rollout phase"); err != nil {
		return nil, err
	}

	fmt.Printf("rollout: fleet of %d switched to the slowest level under load — %d completed, %d failed, %d dense-verified, %d mismatches, %.1f%% affinity\n",
		n, rep.Completed(), rep.Failed, rep.Verified, rep.Mismatches, st.AffinityHitRate()*100)
	switch {
	case rep.Failed > 0:
		return nil, fmt.Errorf("rollout phase delivered %d failed responses (zero-downtime contract)", rep.Failed)
	case rep.Mismatches > 0:
		return nil, fmt.Errorf("rollout phase had %d dense mismatches", rep.Mismatches)
	case rep.Verified == 0:
		return nil, fmt.Errorf("rollout phase verified nothing")
	case st.Rollouts != 1:
		return nil, fmt.Errorf("rollout phase recorded %d rollouts, want 1", st.Rollouts)
	}
	for _, nd := range r.Nodes() {
		if got := nd.Server().Engine().Level(); got != level {
			return nil, fmt.Errorf("rollout phase left node %d at level %d, want %d", nd.ID, got, level)
		}
	}
	return &clusterPhaseRow{
		Nodes: n, Completed: rep.Completed(), Failed: rep.Failed,
		Rollouts: st.Rollouts, Verified: rep.Verified, Mismatches: rep.Mismatches,
		AffinityRate: st.AffinityHitRate(),
	}, nil
}

// runClusterFailover crashes one of two nodes mid-load: its in-flight
// generations must fail over to the survivor via truncate-replay and
// every delivered stream must still dense-verify — the bit-identical
// recovery contract.
func runClusterFailover(spec clusterBenchSpec) (*clusterPhaseRow, error) {
	// slower steps than the scaling arms so the crash reliably lands
	// mid-generation with committed prefixes to replay
	stepFloor := 2 * spec.stepFloor
	if stepFloor <= 0 {
		stepFloor = 2 * time.Millisecond
	}
	r, cleanup, err := buildClusterRouter(spec, 2, stepFloor)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	defer r.Stop()

	go func() {
		time.Sleep(spec.duration * 2 / 5)
		_ = r.Crash(1)
	}()
	// a quarter of the rate: the survivor (node 0, whose engine also
	// computes the references) must absorb the whole fleet's load
	rep, err := loadgen.Run(r, clusterLoad(spec, spec.rps/4, r.Nodes()[0].Server()))
	if err != nil {
		return nil, fmt.Errorf("failover phase: %w", err)
	}
	st := r.Stats()
	if _, err := replayClusterTrace(r, "failover phase"); err != nil {
		return nil, err
	}

	fmt.Printf("failover: node 1 of 2 crashed mid-run — %d failovers replayed, %d completed, %d failed, %d dense-verified, %d mismatches\n",
		st.Failovers, rep.Completed(), rep.Failed, rep.Verified, rep.Mismatches)
	switch {
	case rep.Failed > 0:
		return nil, fmt.Errorf("failover phase delivered %d failed responses", rep.Failed)
	case st.Failovers == 0:
		return nil, fmt.Errorf("failover phase recorded no failovers — the crash missed all in-flight work")
	case rep.Mismatches > 0:
		return nil, fmt.Errorf("failover phase had %d dense mismatches — truncate-replay diverged", rep.Mismatches)
	case rep.Verified == 0:
		return nil, fmt.Errorf("failover phase verified nothing")
	}
	return &clusterPhaseRow{
		Nodes: 2, Completed: rep.Completed(), Failed: rep.Failed,
		Failovers: st.Failovers, Verified: rep.Verified, Mismatches: rep.Mismatches,
		AffinityRate: st.AffinityHitRate(),
	}, nil
}

// replayClusterTrace re-picks every recorded routing decision from the
// trace's seed and requires bit-identical choices.
func replayClusterTrace(r *cluster.Router, phase string) (int, error) {
	tr := r.Trace()
	n, err := cluster.Replay(tr)
	if err != nil {
		return 0, fmt.Errorf("%s: trace replay: %w", phase, err)
	}
	return n, nil
}
