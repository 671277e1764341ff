package main

import (
	"fmt"
	"math/rand"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/loadgen"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// autotuneBenchSpec shapes the closed-loop comparison: every arm serves
// the same bursty open-loop profile (square-wave bursts of burstFactor x
// on top of a flat rps base) against the same battery, with execution
// stretched to each level's modeled frequency (SimDVFS), and is scored
// on the composite latency/energy reward.
type autotuneBenchSpec struct {
	duration    time.Duration
	rps         float64
	burstPeriod time.Duration
	burstFactor float64
	batteryJ    float64
	targetMS    float64
	seed        int64
}

// autotuneCycles is the modeled per-request work, shared by every arm's
// energy accounting and by the trace replay (serve's default).
const autotuneCycles = 2e6

// autotuneArm is one scored contender.
type autotuneArm struct {
	name      string
	report    *loadgen.Report
	served    serve.Summary // the arm's recorder once its load drained
	score     float64
	relEnergy float64
	trace     serve.AutotuneTrace
	metrics   map[string]float64 // registry snapshot, -json runs only
}

// runAutotuneBench compares static levels, the battery governor, and
// the closed-loop RL controller under the bursty profile, verifies the
// closed-loop decision trace replays deterministically, and fails when
// the closed loop scores below the worst static level.
func runAutotuneBench(spec autotuneBenchSpec) error {
	levels, costs, err := autotuneLevelTable(spec)
	if err != nil {
		return err
	}

	atCfg := serve.AutotuneConfig{Seed: spec.seed}
	var arms []autotuneArm
	for i := range levels {
		arm, err := runAutotuneArm(spec, "static-"+levels[i].Name, i, nil, nil)
		if err != nil {
			return err
		}
		arms = append(arms, arm)
	}
	govArm, err := runAutotuneArm(spec, "governor", -1, func(eng *serve.Engine) serve.Policy {
		return serve.NewGovernorPolicy(eng.Levels(), 64)
	}, nil)
	if err != nil {
		return err
	}
	arms = append(arms, govArm)
	rlArm, err := runAutotuneArm(spec, "rl-closed-loop", -1, nil, &atCfg)
	if err != nil {
		return err
	}
	arms = append(arms, rlArm)

	for i := range arms {
		arms[i].score, arms[i].relEnergy = autotuneScore(arms[i], costs, spec)
	}

	fmt.Printf("%-14s %9s %7s %8s %8s %8s %9s %6s %8s %8s\n",
		"arm", "completed", "dropped", "p50_ms", "p95_ms", "p99_ms", "battery%", "relE", "switches", "reward")
	for _, a := range arms {
		fmt.Printf("%-14s %9d %7d %8.2f %8.2f %8.2f %8.0f%% %6.2f %8d %8.3f\n",
			a.name, a.report.Completed(), a.report.Shed,
			a.served.Overall.P50MS, a.served.Overall.P95MS, a.served.Overall.P99MS,
			a.served.BatteryFraction*100, a.relEnergy, a.served.Switches, a.score)
	}
	fmt.Printf("\nreward = (p95 <= %.0fms ? +1 : -1) + 0.8*(1-relE)*(1-battery+0.2) - dropped/offered\n", spec.targetMS)

	if jsonRep != nil {
		section := &autotuneSection{TargetMS: spec.targetMS}
		for _, a := range arms {
			section.Arms = append(section.Arms, autotuneRow{
				Arm:             a.name,
				Completed:       a.report.Completed(),
				Dropped:         a.report.Shed,
				P50MS:           a.served.Overall.P50MS,
				P95MS:           a.served.Overall.P95MS,
				P99MS:           a.served.Overall.P99MS,
				BatteryFraction: a.served.BatteryFraction,
				RelEnergy:       a.relEnergy,
				Switches:        a.served.Switches,
				Reward:          a.score,
			})
		}
		section.Metrics = arms[len(arms)-1].metrics // the closed-loop arm
		jsonRep.Autotune = section
	}

	// the closed loop must be auditable: replay the recorded trace
	// through a fresh controller and require identical decisions
	replayed, err := serve.ReplayTrace(levels, dvfs.DefaultPowerModel(), autotuneCycles, rlArm.trace)
	if err != nil {
		return fmt.Errorf("autotune trace replay: %w", err)
	}
	fmt.Printf("decision trace: %d ticks, replay from seed %d reproduced all decisions\n",
		len(replayed), rlArm.trace.Seed)

	worst, best := arms[0], arms[0]
	for _, a := range arms[:len(levels)] { // static arms only
		if a.score < worst.score {
			worst = a
		}
		if a.score > best.score {
			best = a
		}
	}
	closed := arms[len(arms)-1]
	fmt.Printf("closed-loop %.3f vs static best %.3f (%s) / worst %.3f (%s)\n",
		closed.score, best.score, best.name, worst.score, worst.name)
	// the enforced floor: match or beat the worst static level. The 0.1
	// tolerance (on a reward scale spanning ~2) absorbs scoreboard ties
	// on noisy hosts without weakening the contract; runs shorter than
	// ~1s have too few control ticks to learn and may legitimately sit
	// at the floor.
	if closed.score < worst.score-0.1 {
		return fmt.Errorf("closed-loop reward %.3f fell below the worst static level %s (%.3f)",
			closed.score, worst.name, worst.score)
	}
	return nil
}

// autotuneLevelTable resolves the deployed levels and prints the hwsim
// cost table every arm is scored against.
func autotuneLevelTable(spec autotuneBenchSpec) ([]dvfs.Level, []hwsim.LevelCost, error) {
	levels := make([]dvfs.Level, len(evalLevelNames))
	for i, name := range evalLevelNames {
		l, err := dvfs.LevelByName(name)
		if err != nil {
			return nil, nil, err
		}
		levels[i] = l
	}
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), autotuneCycles)
	fmt.Printf("bursty profile: %.0f req/s base, %.0fx bursts every %s, %s total; target %.0fms, battery %.2f J, SimDVFS on\n\n",
		spec.rps, spec.burstFactor, spec.burstPeriod, spec.duration, spec.targetMS, spec.batteryJ)
	fmt.Printf("%-5s %9s %10s %12s %8s\n", "level", "freq_MHz", "sparsity", "energy_uJ", "relE")
	for i, c := range costs {
		fmt.Printf("%-5s %9.0f %10.2f %12.1f %8.2f\n",
			c.Level.Name, c.Level.FreqMHz, evalSparsities[i], c.EnergyJ*1e6, c.RelEnergy)
	}
	fmt.Println()
	return levels, costs, nil
}

// evalLevelNames / evalSparsities follow rt3serve's deployment
// convention (fastest first, sparser sets at slower levels) but span
// Table I wider — l1 runs at 400 MHz, a 3.5x SimDVFS stretch — so the
// slow level genuinely saturates during bursts and the latency/energy
// trade the controller navigates is real, not dominated by one level.
var (
	evalLevelNames = []string{"l6", "l3", "l1"}
	evalSparsities = []float64{0.3, 0.5, 0.7}
)

// runAutotuneArm builds a fresh deployment (same seed — identical
// weights and pattern sets per arm), serves the spec's bursty profile
// under the arm's controller, and returns its report. static >= 0 pins
// that level with no controller; buildPol installs a Policy; at enables
// the closed-loop autotuner.
func runAutotuneArm(spec autotuneBenchSpec, name string, static int, buildPol func(*serve.Engine) serve.Policy, at *serve.AutotuneConfig) (autotuneArm, error) {
	rng := rand.New(rand.NewSource(spec.seed))
	model := transformer.NewClassifier(transformer.Config{
		Vocab: 24, Dim: 32, Heads: 2, FFHidden: 64, EncLayers: 2, SeqLen: 10, Classes: 3,
	}, rng)
	ref := model.PrunableLinears()[0].W.Value
	var sets []*pattern.Set
	for _, sp := range evalSparsities {
		sets = append(sets, pattern.GenerateSet(ref, 4, sp, 3, rng))
	}
	data, err := serve.BundleFromModel(model, sets, evalLevelNames).Encode()
	if err != nil {
		return autotuneArm{}, err
	}
	bundle, err := deploy.Decode(data)
	if err != nil {
		return autotuneArm{}, err
	}
	replicas := []serve.Model{model.Clone()}
	eng, err := serve.NewEngine(bundle, replicas, rtswitch.DefaultSwitchCostModel())
	if err != nil {
		return autotuneArm{}, err
	}
	defer eng.Close()

	cfg := serve.Config{
		MaxBatch: 8, QueueCap: 4096,
		TargetMS: spec.targetMS, BatteryJ: spec.batteryJ, SimDVFS: true,
		CyclesPerInference: autotuneCycles,
		Autotune:           at,
	}
	if buildPol != nil {
		cfg.Policy = buildPol(eng)
	}
	srv := serve.New(eng, cfg)
	srv.Start()
	defer srv.Stop()
	if static >= 0 {
		if _, err := srv.SwitchTo(static); err != nil {
			return autotuneArm{}, err
		}
	}
	report, err := loadgen.Run(loadgen.Keyless(srv), loadgen.Spec{
		Duration:         spec.duration,
		Rate:             loadgen.SquareWave(loadgen.Ramp(spec.rps, spec.rps, spec.duration), spec.burstPeriod, spec.burstFactor),
		Seed:             spec.seed,
		ClassifyFraction: 1,
		Pool:             loadgen.TokenPool(spec.seed, 10, 24),
	})
	if err != nil {
		return autotuneArm{}, fmt.Errorf("%s: %w", name, err)
	}
	arm := autotuneArm{name: name, report: report, served: srv.Summary()}
	if tr, ok := srv.AutotuneTrace(); ok {
		arm.trace = tr
	}
	if jsonRep != nil {
		arm.metrics = srv.Metrics().Snapshot()
	}
	return arm, nil
}

// autotuneScore computes the composite latency/energy reward of one
// arm's full run: +1/-1 on the overall p95 against the target (p95, not
// p99, so two tail requests of host jitter cannot flip a verdict), the
// online reward's energy bonus on the run's request-weighted relative
// energy and final charge, minus the dropped fraction.
func autotuneScore(arm autotuneArm, costs []hwsim.LevelCost, spec autotuneBenchSpec) (score, relEnergy float64) {
	byName := map[string]float64{}
	for _, c := range costs {
		byName[c.Level.Name] = c.RelEnergy
	}
	var wsum, n float64
	for _, ls := range arm.served.Levels {
		wsum += byName[ls.Level] * float64(ls.Count)
		n += float64(ls.Count)
	}
	relEnergy = 1
	if n > 0 {
		relEnergy = wsum / n
	}
	score = 1.0
	if arm.served.Overall.P95MS > spec.targetMS {
		score = -1
	}
	score += 0.8 * (1 - relEnergy) * (1 - arm.served.BatteryFraction + 0.2)
	if arm.report.Offered > 0 {
		score -= float64(arm.report.Shed) / float64(arm.report.Offered)
	}
	return score, relEnergy
}
