package main

import (
	"fmt"
	"reflect"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// chaosBenchSpec shapes the chaos-replay benchmark: every fault profile
// is fired against every builtin workload trace on a fresh fleet, then a
// determinism arm runs the same level-stable scenario twice from one
// seed and requires identical fault schedules, router decisions, and
// response sets.
type chaosBenchSpec struct {
	nodes     int
	stepFloor time.Duration
	scale     float64 // time scale applied to every trace bucket window
	seed      int64
}

// chaosProfiles is the benchmark matrix's fault axis: a fault-free
// baseline (the p99 reference), the two single-fault profiles with the
// sharpest recovery stories, a resource fault, and the full gauntlet.
var chaosProfiles = []string{"none", "crash", "rollout", "collapse", "all"}

// Chaos floors, enforced after the matrix: no response the cluster
// accepted may be lost, every completed response must dense-verify,
// every decision trace must replay bit-identically, the crash arms must
// actually exercise failover, and faults may inflate tail latency only
// so far over the fault-free baseline on the same trace.
const chaosP99InflationFloor = 25.0

// chaosArm is one scored profile x trace cell.
type chaosArm struct {
	profile string
	trace   string
	report  *chaos.ScenarioReport
	metrics map[string]float64 // router registry snapshot, -json runs only
}

// runChaosBench runs the full matrix plus the determinism double-run,
// prints the table, and fails when a floor is missed.
func runChaosBench(spec chaosBenchSpec) error {
	traces := chaos.BuiltinTraces()
	fmt.Printf("chaos matrix: %d-node fleet, step floor %s, time scale %.2g, seed %d; profiles %v over traces %v\n\n",
		spec.nodes, spec.stepFloor, spec.scale, spec.seed, chaosProfiles, traces)

	var arms []chaosArm
	for _, trace := range traces {
		for _, profile := range chaosProfiles {
			arm, err := runChaosArm(spec, profile, trace, spec.seed)
			if err != nil {
				return err
			}
			arms = append(arms, arm)
		}
	}

	fmt.Printf("%-9s %-11s %8s %10s %6s %7s %10s %8s %8s %9s %10s %9s %9s\n",
		"profile", "trace", "offered", "completed", "shed", "failed", "tok_per_s", "p50_ms", "p99_ms", "verified", "failovers", "retries", "replayed")
	for _, a := range arms {
		wl, st := a.report.Workload, a.report.Stats
		fmt.Printf("%-9s %-11s %8d %10d %6d %7d %10.0f %8.2f %8.2f %9d %10d %9d %9d\n",
			a.profile, a.trace, wl.Offered, wl.Completed(), wl.Shed, wl.Failed,
			wl.TokensPerSec, wl.P50MS, wl.P99MS, wl.Verified, st.Failovers, st.Retries, a.report.Replayed)
	}
	fmt.Println()

	det, err := runChaosDeterminism(spec)
	if err != nil {
		return err
	}

	if jsonRep != nil {
		section := &chaosSection{
			Nodes:       spec.nodes,
			StepFloorMS: float64(spec.stepFloor.Microseconds()) / 1000,
			Scale:       spec.scale,
			Determinism: det,
		}
		for _, a := range arms {
			wl, st := a.report.Workload, a.report.Stats
			section.Arms = append(section.Arms, chaosArmRow{
				Profile: a.profile, Trace: a.trace,
				Offered: wl.Offered, Completed: wl.Completed(),
				Shed: wl.Shed, Failed: wl.Failed,
				TokensPerSec: wl.TokensPerSec, P50MS: wl.P50MS, P99MS: wl.P99MS,
				Verified: wl.Verified, Mismatches: wl.Mismatches,
				Failovers: st.Failovers, Retries: st.Retries,
				BreakerTrips: st.BreakerTrips, Rollouts: st.Rollouts,
				FaultsFired: len(a.report.Injector.Fired), Replayed: a.report.Replayed,
			})
			if a.metrics != nil {
				section.Metrics = a.metrics // last arm's router registry wins
			}
		}
		jsonRep.Chaos = section
	}

	return enforceChaosFloors(arms, traces, det)
}

// runChaosArm fires one profile against one trace on a fresh fleet with
// full dense verification and replay-checks the decision trace.
func runChaosArm(spec chaosBenchSpec, profile, trace string, seed int64) (chaosArm, error) {
	r, cleanup, err := buildChaosRouter(spec)
	if err != nil {
		return chaosArm{}, err
	}
	defer cleanup()
	defer r.Stop()

	ts, err := chaos.LoadBuiltinTrace(trace)
	if err != nil {
		return chaosArm{}, err
	}
	sched, err := chaos.NewSchedule(profile, spec.nodes, time.Duration(float64(ts.Duration())*spec.scale), seed)
	if err != nil {
		return chaosArm{}, err
	}
	rep, err := chaos.Scenario{
		Router:    r,
		Schedule:  sched,
		Spec:      ts,
		Seed:      seed,
		TimeScale: spec.scale,
		Verify:    true, // on node 0, which schedules never fault
	}.Run()
	if err != nil {
		return chaosArm{}, fmt.Errorf("%s x %s: %w", profile, trace, err)
	}
	arm := chaosArm{profile: profile, trace: trace, report: rep}
	if jsonRep != nil {
		arm.metrics = r.Metrics().Snapshot()
	}
	return arm, nil
}

// chaosDeterminism is the double-run result: two fresh fleets, one seed,
// one level-stable crash schedule — everything observable must agree.
type chaosDeterminism struct {
	Seed         int64  `json:"seed"`
	Profile      string `json:"profile"`
	Trace        string `json:"trace"`
	Offered      int    `json:"offered"`
	Completed    int    `json:"completed"`
	ResponseHash string `json:"response_hash"`
}

// runChaosDeterminism replays crash x diurnal twice from the same seed on
// two fresh fleets and requires identical fault schedules, fired-event
// sequences, offered counts, and response-set hashes (which needs zero
// shed, so the comparison covers every response).
func runChaosDeterminism(spec chaosBenchSpec) (*chaosDeterminism, error) {
	const profile, trace = "crash", "diurnal"
	seed := spec.seed + 100
	a, err := runChaosArm(spec, profile, trace, seed)
	if err != nil {
		return nil, fmt.Errorf("determinism run 1: %w", err)
	}
	b, err := runChaosArm(spec, profile, trace, seed)
	if err != nil {
		return nil, fmt.Errorf("determinism run 2: %w", err)
	}
	for _, arm := range []chaosArm{a, b} {
		if err := checkChaosArmFloors(arm); err != nil {
			return nil, fmt.Errorf("determinism: %w", err)
		}
		if arm.report.Workload.Shed != 0 {
			return nil, fmt.Errorf("determinism run shed %d requests; the response-set comparison needs zero shed", arm.report.Workload.Shed)
		}
	}
	if fa, fb := firedKeys(a.report), firedKeys(b.report); !reflect.DeepEqual(fa, fb) {
		return nil, fmt.Errorf("determinism: fault schedules diverged:\n%v\n%v", fa, fb)
	}
	wa, wb := a.report.Workload, b.report.Workload
	if wa.Offered != wb.Offered {
		return nil, fmt.Errorf("determinism: offered %d vs %d — the arrival sequence is not a pure function of the seed", wa.Offered, wb.Offered)
	}
	if wa.ResponseHash != wb.ResponseHash {
		return nil, fmt.Errorf("determinism: response hashes differ (%016x vs %016x)", wa.ResponseHash, wb.ResponseHash)
	}
	fmt.Printf("determinism: %s x %s ran twice from seed %d on fresh fleets — identical fault schedule (%d events), %d offered, response hash %016x both runs\n\n",
		profile, trace, seed, len(a.report.Injector.Fired), wa.Offered, wa.ResponseHash)
	return &chaosDeterminism{
		Seed: seed, Profile: profile, Trace: trace,
		Offered: wa.Offered, Completed: wa.Completed(),
		ResponseHash: fmt.Sprintf("%016x", wa.ResponseHash),
	}, nil
}

// firedKeys reduces an injector trace to its deterministic identity:
// what fired, in what order, against whom, with what outcome. FiredAt is
// wall time and excluded.
func firedKeys(rep *chaos.ScenarioReport) []string {
	var keys []string
	for _, f := range rep.Injector.Fired {
		keys = append(keys, fmt.Sprintf("%d:%s:node%d:%g:%s", f.Seq, f.Event.Kind, f.Event.Node, f.Event.Param, f.Outcome))
	}
	return keys
}

// checkChaosArmFloors enforces the per-arm invariants every cell of the
// matrix must hold regardless of profile.
func checkChaosArmFloors(a chaosArm) error {
	rep := a.report
	wl := rep.Workload
	switch {
	case wl.Failed != 0:
		return fmt.Errorf("%s x %s delivered %d failed responses", a.profile, a.trace, wl.Failed)
	case wl.Verified != wl.Completed():
		return fmt.Errorf("%s x %s dense-verified %d of %d completed responses", a.profile, a.trace, wl.Verified, wl.Completed())
	case wl.Mismatches != 0:
		return fmt.Errorf("%s x %s had %d dense mismatches", a.profile, a.trace, wl.Mismatches)
	case wl.Completed() == 0:
		return fmt.Errorf("%s x %s completed nothing", a.profile, a.trace)
	case rep.ReplayErr != "":
		return fmt.Errorf("%s x %s decision replay failed: %s", a.profile, a.trace, rep.ReplayErr)
	case rep.Injector.ChaffFailed != 0:
		return fmt.Errorf("%s x %s lost %d chaff responses", a.profile, a.trace, rep.Injector.ChaffFailed)
	}
	for _, f := range rep.Injector.Fired {
		if len(f.Outcome) >= 10 && f.Outcome[:10] == "UNEXPECTED" {
			return fmt.Errorf("%s x %s fault %d: %s", a.profile, a.trace, f.Seq, f.Outcome)
		}
	}
	return nil
}

// enforceChaosFloors checks every arm, the crash arms' failover
// requirement, the rollout arms' rollout requirement, and the per-trace
// p99 inflation bound, printing one PASS line per floor (the CI smoke
// job greps the first).
func enforceChaosFloors(arms []chaosArm, traces []string, det *chaosDeterminism) error {
	totalVerified := 0
	for _, a := range arms {
		if err := checkChaosArmFloors(a); err != nil {
			return err
		}
		totalVerified += a.report.Workload.Verified
	}

	var crashFailovers, rolloutCount int64
	for _, a := range arms {
		switch a.profile {
		case "crash", "all":
			crashFailovers += a.report.Stats.Failovers
		}
		switch a.profile {
		case "rollout", "all":
			rolloutCount += a.report.Stats.Rollouts
		}
	}
	if crashFailovers == 0 {
		return fmt.Errorf("crash arms recorded no failovers — every crash missed all in-flight work")
	}
	if rolloutCount == 0 {
		return fmt.Errorf("rollout arms recorded no rollouts")
	}

	for _, trace := range traces {
		var baseline, worst float64
		worstProfile := ""
		for _, a := range arms {
			if a.trace != trace {
				continue
			}
			if a.profile == "none" {
				baseline = a.report.Workload.P99MS
			} else if a.report.Workload.P99MS > worst {
				worst, worstProfile = a.report.Workload.P99MS, a.profile
			}
		}
		if baseline <= 0 {
			return fmt.Errorf("trace %s has no fault-free p99 baseline", trace)
		}
		if worst > baseline*chaosP99InflationFloor {
			return fmt.Errorf("trace %s: %s p99 %.2fms is %.1fx the fault-free %.2fms, above the %.0fx bound",
				trace, worstProfile, worst, worst/baseline, baseline, chaosP99InflationFloor)
		}
	}

	fmt.Printf("chaos floor PASS: zero failed responses across %d arms\n", len(arms))
	fmt.Printf("chaos floor PASS: 100%% dense-verified (%d responses, 0 mismatches)\n", totalVerified)
	fmt.Printf("chaos floor PASS: deterministic replay — identical fault schedule and response set (hash %s) across two seed-%d runs\n",
		det.ResponseHash, det.Seed)
	fmt.Printf("chaos floor PASS: crash arms replayed %d failovers, rollout arms completed %d rollouts, p99 inflation within %.0fx\n",
		crashFailovers, rolloutCount, chaosP99InflationFloor)
	return nil
}

// chaosModelCfg sizes the deployment for the mixed chaos workload: the
// GLUE vocabulary (48 tokens — clusterModelCfg's 24 cannot embed GLUE
// examples) plus a decoder for generation sessions.
var chaosModelCfg = transformer.Config{
	Vocab: 48, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
}

// buildChaosRouter stands up the resilient fleet the chaos contract
// assumes: batteries (the collapse fault needs a target), retries with
// backoff, and per-node breakers.
func buildChaosRouter(spec chaosBenchSpec) (*cluster.Router, func(), error) {
	return buildFleet(chaosModelCfg, spec.seed, spec.nodes, serve.Config{
		MaxBatch: 8, QueueCap: 256, Generate: true, MaxGenTokens: 32,
		StepFloor: spec.stepFloor, BatteryJ: 200,
	}, cluster.Config{
		Seed:         spec.seed,
		MaxRetries:   200,
		RetryBackoff: 500 * time.Microsecond,
		Breaker:      cluster.BreakerConfig{Enabled: true, Threshold: 5, Cooldown: 5 * time.Millisecond},
	})
}
