package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// The chaos-replay benchmark fires every fault profile against every
// builtin workload trace on a fresh chaosNodes fleet (faults never
// target node 0, the dense-verify reference), each fused step taking at
// least chaosStepFloor so a crash reliably lands mid-generation and every
// trace bucket window scaled by chaosScale. A determinism double run then
// replays one level-stable scenario twice from one seed.
const (
	chaosNodes     = 3
	chaosStepFloor = time.Millisecond
	chaosScale     = 1.0

	// chaosP99InflationFloor bounds how far faults may inflate tail
	// latency over the fault-free baseline on the same trace.
	chaosP99InflationFloor = 25.0

	// The double run: this profile against this trace, from the
	// experiment's seed plus chaosDeterminismSeedOffset.
	chaosDeterminismProfile    = "crash"
	chaosDeterminismTrace      = "diurnal"
	chaosDeterminismSeedOffset = 100

	// chaosSeed1ResponseHash is the double run's response-set hash at
	// seed 1, the one BENCH_chaos.json records: at that seed the two runs
	// must agree with each other and with it.
	chaosSeed1ResponseHash = "4a3a105de2bdb27f"
)

// chaosProfiles is the benchmark matrix's fault axis: a fault-free
// baseline (the p99 reference), the two single-fault profiles with the
// sharpest recovery stories, a resource fault, and the full gauntlet.
var chaosProfiles = []string{"none", "crash", "rollout", "collapse", "all"}

// chaosModelCfg sizes the deployment for the mixed chaos workload: the
// GLUE vocabulary (48 tokens — clusterModelCfg's 24 cannot embed GLUE
// examples) plus a decoder for generation sessions.
var chaosModelCfg = transformer.Config{
	Vocab: 48, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
}

type chaosSection struct {
	Nodes       int           `json:"nodes"`
	StepFloorMS float64       `json:"step_floor_ms"`
	Scale       float64       `json:"scale"`
	Seed        int64         `json:"seed"`
	Arms        []chaosArmRow `json:"arms"`
	// Determinism holds the double run's two arms: same seed, fresh
	// fleets, and (the enforced replay contract) an identical fault
	// schedule and response-set hash.
	Determinism []chaosArmRow      `json:"determinism"`
	Metrics     map[string]float64 `json:"metrics"` // last matrix arm's rt3_cluster_*/rt3_router_*/rt3_breaker_* registry
}

type chaosArmRow struct {
	Profile      string  `json:"profile"`
	Trace        string  `json:"trace"`
	Offered      int     `json:"offered"`
	Completed    int     `json:"completed"`
	Shed         int     `json:"shed"`
	Failed       int     `json:"failed"`
	TokensPerSec float64 `json:"tok_per_s"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	Verified     int     `json:"verified"`
	Mismatches   int     `json:"mismatches"`
	Failovers    int64   `json:"failovers"`
	Retries      int64   `json:"retries"`
	BreakerTrips int64   `json:"breaker_trips"`
	Rollouts     int64   `json:"rollouts"`
	FaultsFired  int     `json:"faults_fired"`
	// Unexpected counts fired faults whose outcome reads UNEXPECTED.
	Unexpected  int `json:"unexpected"`
	ChaffFailed int `json:"chaff_failed"`
	// Replayed counts router decisions re-picked bit-identically; a
	// failed replay leaves its reason in ReplayErr.
	Replayed     int    `json:"replayed"`
	ReplayErr    string `json:"replay_err,omitempty"`
	ResponseHash string `json:"response_hash"`
	// Fired is the fault trace's deterministic identity: what fired, in
	// what order, against whom, with what outcome (wall time excluded).
	Fired []string `json:"-"`
}

// runChaos runs the full matrix plus the determinism double run.
func runChaos(seed int64) (*chaosSection, error) {
	traces := chaos.BuiltinTraces()
	fmt.Printf("chaos matrix: %d-node fleet, step floor %s, time scale %.2g, seed %d; profiles %v over traces %v\n\n",
		chaosNodes, chaosStepFloor, chaosScale, seed, chaosProfiles, traces)
	s := &chaosSection{
		Nodes: chaosNodes, StepFloorMS: float64(chaosStepFloor.Microseconds()) / 1000, Scale: chaosScale, Seed: seed,
	}
	for _, trace := range traces {
		for _, profile := range chaosProfiles {
			row, metrics, err := runChaosArm(seed, profile, trace, seed)
			if err != nil {
				return nil, err
			}
			s.Arms, s.Metrics = append(s.Arms, row), metrics
		}
	}
	printRows(os.Stdout, s.Arms)
	for range 2 {
		row, _, err := runChaosArm(seed, chaosDeterminismProfile, chaosDeterminismTrace, seed+chaosDeterminismSeedOffset)
		if err != nil {
			return nil, fmt.Errorf("determinism run: %w", err)
		}
		s.Determinism = append(s.Determinism, row)
	}
	fmt.Println("determinism: the same scenario twice on fresh fleets")
	printRows(os.Stdout, s.Determinism)
	return s, nil
}

// runChaosArm fires one profile against one trace, scheduled and driven
// from runSeed, on a fresh fleet built from seed, with full dense
// verification, and replay-checks the decision trace. It returns the
// arm's row and the fleet's router registry.
func runChaosArm(seed int64, profile, trace string, runSeed int64) (chaosArmRow, map[string]float64, error) {
	r, err := buildChaosRouter(seed)
	if err != nil {
		return chaosArmRow{}, nil, err
	}
	defer r.Stop()

	ts, err := chaos.LoadBuiltinTrace(trace)
	if err != nil {
		return chaosArmRow{}, nil, err
	}
	sched, err := chaos.NewSchedule(profile, chaosNodes, time.Duration(float64(ts.Duration())*chaosScale), runSeed)
	if err != nil {
		return chaosArmRow{}, nil, err
	}
	load := ts.Spec(runSeed, chaosScale)
	load.Verify = r.Nodes()[0].Server() // node 0: schedules never fault it
	rep, err := chaos.Scenario{Router: r, Schedule: sched, Load: load}.Run()
	if err != nil {
		return chaosArmRow{}, nil, fmt.Errorf("%s x %s: %w", profile, trace, err)
	}
	wl, st := rep.Workload, rep.Stats
	row := chaosArmRow{
		Profile: profile, Trace: trace,
		Offered: wl.Offered, Completed: wl.Completed(), Shed: wl.Shed, Failed: wl.Failed,
		TokensPerSec: wl.TokensPerSec, P50MS: wl.P50MS, P99MS: wl.P99MS,
		Verified: wl.Verified, Mismatches: wl.Mismatches,
		Failovers: st.Failovers, Retries: st.Retries, BreakerTrips: st.BreakerTrips, Rollouts: st.Rollouts,
		ChaffFailed: rep.Injector.ChaffFailed, Replayed: rep.Replayed, ReplayErr: rep.ReplayErr,
		ResponseHash: fmt.Sprintf("%016x", wl.ResponseHash),
	}
	row.FaultsFired, _ = rep.Injector.Counts()
	for _, f := range rep.Injector.Fired {
		if strings.HasPrefix(f.Outcome, "UNEXPECTED") {
			row.Unexpected++
		}
		row.Fired = append(row.Fired, fmt.Sprintf("%d:%s:node%d:%g:%s", f.Seq, f.Event.Kind, f.Event.Node, f.Event.Param, f.Outcome))
	}
	return row, r.Metrics().Snapshot(), nil
}

// buildChaosRouter is the chaos matrix's fleet, started: chaosNodes
// nodes built from seed behind the router.
func buildChaosRouter(seed int64) (*cluster.Router, error) {
	return buildFleet(chaosModelCfg, seed, chaosNodes, serve.Config{
		MaxBatch: 8, QueueCap: 256, Generate: true, MaxGenTokens: 32,
		StepFloor: chaosStepFloor, BatteryJ: 200, // the collapse fault needs a battery to drain
	}, cluster.Config{Seed: seed})
}

// check holds one arm to the invariants every cell of the matrix must
// meet regardless of profile.
func (a chaosArmRow) check() error {
	cell := a.Profile + " x " + a.Trace
	switch {
	case a.Failed != 0:
		return fmt.Errorf("%s delivered %d failed responses", cell, a.Failed)
	case a.Verified != a.Completed:
		return fmt.Errorf("%s dense-verified %d of %d completed responses", cell, a.Verified, a.Completed)
	case a.Mismatches != 0:
		return fmt.Errorf("%s had %d dense mismatches", cell, a.Mismatches)
	case a.Completed == 0:
		return fmt.Errorf("%s completed nothing", cell)
	case a.ReplayErr != "":
		return fmt.Errorf("%s decision replay failed: %s", cell, a.ReplayErr)
	case a.ChaffFailed != 0:
		return fmt.Errorf("%s lost %d chaff responses", cell, a.ChaffFailed)
	case a.Unexpected != 0:
		return fmt.Errorf("%s fired %d fault(s) with an UNEXPECTED outcome", cell, a.Unexpected)
	}
	return nil
}

// floors checks every arm, the double run's agreement (which needs zero
// shed, so the comparison covers every response) and, at seed 1, its
// hash against the recorded one, the crash arms'
// failovers, the rollout arms' rollouts, and the per-trace p99 inflation
// bound, and returns one PASS line per floor (CI greps the first and the
// third).
func (s *chaosSection) floors() ([]string, error) {
	totalVerified := 0
	for _, a := range s.Arms {
		if err := a.check(); err != nil {
			return nil, err
		}
		totalVerified += a.Verified
	}
	if len(s.Determinism) != 2 {
		return nil, fmt.Errorf("determinism: %d runs, want 2", len(s.Determinism))
	}
	a, b := s.Determinism[0], s.Determinism[1]
	for _, run := range s.Determinism {
		if err := run.check(); err != nil {
			return nil, fmt.Errorf("determinism: %w", err)
		}
		if run.Shed != 0 {
			return nil, fmt.Errorf("determinism run shed %d requests; the response-set comparison needs zero shed", run.Shed)
		}
	}
	switch {
	case !slices.Equal(a.Fired, b.Fired):
		return nil, fmt.Errorf("determinism: fault schedules diverged:\n%v\n%v", a.Fired, b.Fired)
	case a.Offered != b.Offered:
		return nil, fmt.Errorf("determinism: offered %d vs %d — the arrival sequence is not a pure function of the seed", a.Offered, b.Offered)
	case a.ResponseHash != b.ResponseHash:
		return nil, fmt.Errorf("determinism: response hashes differ (%s vs %s)", a.ResponseHash, b.ResponseHash)
	case s.Seed == 1 && a.ResponseHash != chaosSeed1ResponseHash:
		return nil, fmt.Errorf("determinism: seed-1 response hash %s, want the recorded %s", a.ResponseHash, chaosSeed1ResponseHash)
	}

	var failovers, rollouts int64
	for _, a := range s.Arms {
		if a.Profile == "crash" || a.Profile == "all" {
			failovers += a.Failovers
		}
		if a.Profile == "rollout" || a.Profile == "all" {
			rollouts += a.Rollouts
		}
	}
	if failovers == 0 {
		return nil, fmt.Errorf("crash arms recorded no failovers — every crash missed all in-flight work")
	}
	if rollouts == 0 {
		return nil, fmt.Errorf("rollout arms recorded no rollouts")
	}

	baseline := map[string]float64{}
	for _, a := range s.Arms {
		if a.Profile == "none" {
			baseline[a.Trace] = a.P99MS
		}
	}
	for _, a := range s.Arms {
		base := baseline[a.Trace]
		if base <= 0 {
			return nil, fmt.Errorf("trace %s has no fault-free p99 baseline", a.Trace)
		}
		if a.P99MS > base*chaosP99InflationFloor {
			return nil, fmt.Errorf("trace %s: %s p99 %.2fms is %.1fx the fault-free %.2fms, above the %.0fx bound",
				a.Trace, a.Profile, a.P99MS, a.P99MS/base, base, chaosP99InflationFloor)
		}
	}

	return []string{
		fmt.Sprintf("chaos floor PASS: zero failed responses across %d arms", len(s.Arms)),
		fmt.Sprintf("chaos floor PASS: 100%% dense-verified (%d responses, 0 mismatches)", totalVerified),
		fmt.Sprintf("chaos floor PASS: deterministic replay — identical fault schedule and response set (hash %s) across two seed-%d runs",
			a.ResponseHash, s.Seed+chaosDeterminismSeedOffset),
		fmt.Sprintf("chaos floor PASS: crash arms replayed %d failovers, rollout arms completed %d rollouts, p99 inflation within %.0fx",
			failovers, rollouts, chaosP99InflationFloor),
	}, nil
}
