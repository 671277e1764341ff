package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// The sharded-serving benchmark: the scaling arms replay one bursty
// session-tagged generation profile (clusterBurst x square-wave bursts
// every clusterPeriod on a clusterRPS base, clusterSessions session keys)
// against clusterNodes fleets whose per-step compute capacity is pinned
// by clusterStepFloor, so aggregate throughput is set by node count, not
// host jitter — without the floor host kernels outrun the queue and one
// node never saturates. A rollout phase then switches levels under load
// with dense verification, and a failover phase crashes a node
// mid-generation. Every arm and phase is one chaos.Scenario, whose
// injector fires the phases' faults.
const (
	clusterDuration  = 1200 * time.Millisecond
	clusterRPS       = 700
	clusterBurst     = 3
	clusterPeriod    = 300 * time.Millisecond
	clusterSessions  = 96
	clusterStepFloor = time.Millisecond
	clusterPolicy    = "least-loaded"

	// clusterScaleFloor is the enforced aggregate-throughput ratio
	// between the largest and smallest scaling arm, and
	// clusterAffinityFloor the enforced session-affinity hit rate. With
	// per-node capacity pinned by the step floor, a 4-node fleet must
	// push >= 1.8x one saturated node, and pinned sessions must almost
	// never migrate.
	clusterScaleFloor    = 1.8
	clusterAffinityFloor = 0.95
)

// clusterNodes are the scaling arms' fleet sizes, ascending (the scaling
// ratio compares the last arm to the first).
var clusterNodes = []int{1, 2, 4}

// clusterModelCfg is the rt3serve generation deployment at bench scale.
var clusterModelCfg = transformer.Config{
	Vocab: 24, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
}

var (
	clusterLevelNames = []string{"l6", "l4", "l3"}
	clusterSparsities = []float64{0.3, 0.5, 0.7}
)

type clusterSection struct {
	Policy      string          `json:"policy"`
	StepFloorMS float64         `json:"step_floor_ms"`
	Seed        int64           `json:"seed"`
	Scaling     []clusterArmRow `json:"scaling"`
	// SpeedupX is aggregate tok/s of the largest scaling arm over the
	// smallest (the enforced >= 1.8x contract at 4 vs 1).
	SpeedupX float64            `json:"speedup_x"`
	Phases   []clusterPhaseRow  `json:"phases"`  // rollout, then failover
	Metrics  map[string]float64 `json:"metrics"` // largest scaling arm's rt3_cluster_* registry
}

type clusterArmRow struct {
	Nodes        int     `json:"nodes"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Dropped      int     `json:"dropped"`
	Failed       int     `json:"failed"`
	TokensPerSec float64 `json:"tok_per_s"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	AffinityRate float64 `json:"affinity_hit_rate"`
	Decisions    int     `json:"decisions"`
}

type clusterPhaseRow struct {
	Phase        string  `json:"phase"`
	Nodes        int     `json:"nodes"`
	Completed    int     `json:"completed"`
	Failed       int     `json:"failed"`
	Failovers    int64   `json:"failovers"`
	Rollouts     int64   `json:"rollouts"`
	Verified     int     `json:"verified"`
	Mismatches   int     `json:"mismatches"`
	AffinityRate float64 `json:"affinity_hit_rate"`
}

// runCluster runs the scaling arms, the zero-downtime rollout phase and
// the crash-failover phase, and replay-verifies every router trace.
func runCluster(seed int64) (*clusterSection, error) {
	fmt.Printf("bursty profile: %d req/s base, %dx bursts every %s, %s of arrivals; %d sessions, step floor %s, %s router\n\n",
		clusterRPS, clusterBurst, clusterPeriod, clusterDuration, clusterSessions, clusterStepFloor, clusterPolicy)
	s := &clusterSection{Policy: clusterPolicy, StepFloorMS: float64(clusterStepFloor.Microseconds()) / 1000, Seed: seed}
	for _, n := range clusterNodes {
		row, metrics, err := runClusterArm(seed, n)
		if err != nil {
			return nil, err
		}
		s.Scaling = append(s.Scaling, row)
		s.Metrics = metrics
	}
	printRows(os.Stdout, s.Scaling)
	if first := s.Scaling[0]; first.TokensPerSec > 0 {
		s.SpeedupX = s.Scaling[len(s.Scaling)-1].TokensPerSec / first.TokensPerSec
	}

	rollout, err := runClusterRollout(seed, clusterNodes[len(clusterNodes)-1])
	if err != nil {
		return nil, err
	}
	failover, err := runClusterFailover(seed)
	if err != nil {
		return nil, err
	}
	s.Phases = []clusterPhaseRow{rollout, failover}
	printRows(os.Stdout, s.Phases)
	return s, nil
}

// buildFleet stands up n generation nodes of the given model shape —
// identical weights and pattern sets, every node built from the same
// seed, which is what makes cross-node failover replay and shared dense
// references valid — behind a started router.
func buildFleet(model transformer.Config, seed int64, n int, srvCfg serve.Config, rcfg cluster.Config) (*cluster.Router, error) {
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		d, err := serve.Deploy(serve.DeploySpec{
			Seed: seed, Levels: clusterLevelNames, Sparsities: clusterSparsities, PSize: 4, Patterns: 3,
		}, func(rng *rand.Rand) *transformer.LMModel {
			return transformer.NewLMModel(model, rng)
		}, 1, serve.EngineConfig{})
		if err != nil {
			return nil, err
		}
		nodes[i] = cluster.NewNode(i, serve.New(d.Engine, srvCfg))
	}
	r := cluster.New(nodes, rcfg)
	r.Start()
	return r, nil
}

// buildClusterRouter is the cluster bench's fleet: clusterPolicy and the
// seed, with stepFloor pinning each node's per-step wall time (the
// capacity knob).
func buildClusterRouter(seed int64, n int, stepFloor time.Duration) (*cluster.Router, error) {
	pol, err := cluster.NewPolicy(clusterPolicy)
	if err != nil {
		return nil, err
	}
	return buildFleet(clusterModelCfg, seed, n, serve.Config{
		MaxBatch: 8, QueueCap: 8192,
		Generate: true, MaxGenTokens: 32, StepFloor: stepFloor,
	}, cluster.Config{Policy: pol, Seed: seed})
}

// clusterLoad is the shared session-tagged profile at the given base
// rate; every phase varies only the rate (and verification) around it so
// the arms stay comparable.
func clusterLoad(seed int64, rps float64, verify *serve.Server) loadgen.Spec {
	return loadgen.Spec{
		Duration:  clusterDuration,
		Rate:      loadgen.SquareWave(loadgen.Ramp(rps, rps, clusterDuration), clusterPeriod, clusterBurst),
		Seed:      seed,
		Sessions:  clusterSessions,
		PromptMin: 4, PromptMax: 8,
		OutMin: 6, OutMax: 10,
		Vocab:  clusterModelCfg.Vocab,
		Verify: verify,
	}
}

// runClusterArm plays the profile against an n-node fleet with no
// faults; it returns the arm's row and its router registry.
func runClusterArm(seed int64, n int) (clusterArmRow, map[string]float64, error) {
	r, err := buildClusterRouter(seed, n, clusterStepFloor)
	if err != nil {
		return clusterArmRow{}, nil, err
	}
	defer r.Stop()
	rep, err := playCluster(fmt.Sprintf("%d-node arm", n), r, nil, clusterLoad(seed, clusterRPS, nil))
	if err != nil {
		return clusterArmRow{}, nil, err
	}
	wl := rep.Workload
	return clusterArmRow{
		Nodes: n, Offered: wl.Offered, Completed: wl.Completed(), Dropped: wl.Shed, Failed: wl.Failed,
		TokensPerSec: wl.TokensPerSec, P50MS: wl.P50MS, P99MS: wl.P99MS,
		AffinityRate: rep.Stats.AffinityHitRate(), Decisions: rep.Replayed,
	}, r.Metrics().Snapshot(), nil
}

// runClusterRollout drives the zero-downtime maintenance story: at a
// third of the run the fleet is drained node by node and switched to the
// slowest level, and every delivered generation must dense-verify at the
// level it was served on — possible precisely because a drain quiesces a
// node before its switch, so no generation spans one. Half the rate
// leaves headroom: one node is always draining.
func runClusterRollout(seed int64, n int) (clusterPhaseRow, error) {
	return runClusterPhase(seed, "rollout", n, clusterStepFloor, clusterRPS/2, chaos.Event{
		At: clusterDuration / 3, Kind: chaos.FaultRollout, Node: -1, Param: float64(len(clusterLevelNames) - 1),
	})
}

// runClusterFailover crashes one of two nodes mid-load: its in-flight
// generations must resume on the survivor from their committed tokens and
// every delivered stream must still dense-verify — the bit-identical
// recovery contract. The crash fires from 2/5 of the run on, once node 1
// holds five unfinished requests: one is not enough, since Kill aborts at
// the next step boundary and a generation whose last token is in the
// step in flight completes normally. Steps twice as slow as the scaling
// arms' keep generations in flight; a quarter of the rate lets the
// survivor (node 0, whose engine also computes the references) absorb
// the whole fleet's load.
func runClusterFailover(seed int64) (clusterPhaseRow, error) {
	return runClusterPhase(seed, "failover", 2, 2*clusterStepFloor, clusterRPS/4, chaos.Event{
		At: clusterDuration * 2 / 5, Kind: chaos.FaultCrash, Node: 1, Param: 5,
	})
}

// runClusterPhase plays the profile at rps on a fresh n-node fleet whose
// steps take at least stepFloor while ev fires, dense-verifying every
// delivery on node 0, prints what the fault did, and fails a rollout
// that left a node off its level.
func runClusterPhase(seed int64, phase string, n int, stepFloor time.Duration, rps float64, ev chaos.Event) (clusterPhaseRow, error) {
	r, err := buildClusterRouter(seed, n, stepFloor)
	if err != nil {
		return clusterPhaseRow{}, err
	}
	defer r.Stop()
	sched := &chaos.Schedule{Profile: phase, Events: []chaos.Event{ev}}
	rep, err := playCluster(phase+" phase", r, sched, clusterLoad(seed, rps, r.Nodes()[0].Server()))
	if err != nil {
		return clusterPhaseRow{}, err
	}
	for _, f := range rep.Injector.Fired {
		fmt.Printf("%s phase: %s at %.0fms: %s\n", phase, f.Event.Kind, f.FiredAt.Seconds()*1000, f.Outcome)
	}
	for _, nd := range r.Nodes() {
		if got := nd.Server().Engine().Level(); ev.Kind == chaos.FaultRollout && got != int(ev.Param) {
			return clusterPhaseRow{}, fmt.Errorf("rollout phase left node %d at level %d, want %d", nd.ID, got, int(ev.Param))
		}
	}
	wl, st := rep.Workload, rep.Stats
	return clusterPhaseRow{
		Phase: phase, Nodes: n, Completed: wl.Completed(), Failed: wl.Failed,
		Failovers: st.Failovers, Rollouts: st.Rollouts, Verified: wl.Verified, Mismatches: wl.Mismatches,
		AffinityRate: st.AffinityHitRate(),
	}, nil
}

// playCluster runs one fleet scenario, named for its errors, and fails
// it when the router's decision trace does not replay bit-identically.
func playCluster(name string, r *cluster.Router, sched *chaos.Schedule, load loadgen.Spec) (*chaos.ScenarioReport, error) {
	rep, err := chaos.Scenario{Router: r, Schedule: sched, Load: load}.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if rep.ReplayErr != "" {
		return nil, fmt.Errorf("%s: trace replay: %s", name, rep.ReplayErr)
	}
	return rep, nil
}

// floors holds every scaling arm to zero failed responses and
// clusterAffinityFloor, the fleet to clusterScaleFloor, the rollout phase
// to one rollout and the failover phase to real failovers, and both
// phases to zero failures and zero dense mismatches over a verified run.
func (s *clusterSection) floors() ([]string, error) {
	for _, a := range s.Scaling {
		if a.Failed > 0 {
			return nil, fmt.Errorf("cluster floor FAIL: %d-node arm delivered %d failed responses", a.Nodes, a.Failed)
		}
		if a.AffinityRate < clusterAffinityFloor {
			return nil, fmt.Errorf("cluster floor FAIL: %d-node arm affinity hit rate %.1f%% fell below %.0f%%",
				a.Nodes, a.AffinityRate*100, clusterAffinityFloor*100)
		}
	}
	first, last := s.Scaling[0], s.Scaling[len(s.Scaling)-1]
	pass := []string{fmt.Sprintf("cluster floor PASS: zero failed responses and >= %.0f%% session affinity on every scaling arm",
		clusterAffinityFloor*100)}
	if s.SpeedupX < clusterScaleFloor {
		return pass, fmt.Errorf("cluster floor FAIL: aggregate throughput scaled %.2fx from %d to %d nodes, below the %.1fx floor",
			s.SpeedupX, first.Nodes, last.Nodes, clusterScaleFloor)
	}
	pass = append(pass, fmt.Sprintf("cluster floor PASS: %d nodes push %.2fx the tokens of %d node(s) under the same burst (>= %.1fx)",
		last.Nodes, s.SpeedupX, first.Nodes, clusterScaleFloor))
	for _, p := range s.Phases {
		switch {
		case p.Failed > 0:
			return pass, fmt.Errorf("cluster floor FAIL: %s phase delivered %d failed responses (zero-downtime contract)", p.Phase, p.Failed)
		case p.Mismatches > 0:
			return pass, fmt.Errorf("cluster floor FAIL: %s phase had %d dense mismatches", p.Phase, p.Mismatches)
		case p.Verified == 0:
			return pass, fmt.Errorf("cluster floor FAIL: %s phase verified nothing", p.Phase)
		case p.Phase == "rollout" && p.Rollouts != 1:
			return pass, fmt.Errorf("cluster floor FAIL: rollout phase recorded %d rollouts, want 1", p.Rollouts)
		case p.Phase == "failover" && p.Failovers == 0:
			return pass, fmt.Errorf("cluster floor FAIL: failover phase recorded no failovers — the crash missed all in-flight work")
		}
	}
	return append(pass, "cluster floor PASS: the rollout and failover phases failed nothing, with zero dense mismatches"), nil
}
