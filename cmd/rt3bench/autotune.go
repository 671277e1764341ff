package main

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/loadgen"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// The closed-loop comparison: every arm serves the same bursty open-loop
// profile (square-wave bursts of autotuneBurst x on top of a flat
// autotuneRPS base) against the same autotuneBatteryJ battery, with
// execution stretched to each level's modeled frequency (SimDVFS), and
// is scored on the composite latency/energy reward against the
// autotuneTargetMS objective.
const (
	autotuneDuration = 2 * time.Second
	autotuneRPS      = 600
	autotuneBurst    = 4
	autotunePeriod   = 400 * time.Millisecond
	autotuneBatteryJ = 0.6
	autotuneTargetMS = 15

	// autotuneCycles is the modeled per-request work, shared by every
	// arm's energy accounting and by the trace replay (serve's default).
	autotuneCycles = 2e6
)

// evalLevelNames / evalSparsities follow rt3serve's deployment
// convention (fastest first, sparser sets at slower levels) but span
// Table I wider — l1 runs at 400 MHz, a 3.5x SimDVFS stretch — so the
// slow level genuinely saturates during bursts and the latency/energy
// trade the controller navigates is real, not dominated by one level.
var (
	evalLevelNames = []string{"l6", "l3", "l1"}
	evalSparsities = []float64{0.3, 0.5, 0.7}
)

type autotuneSection struct {
	TargetMS float64       `json:"target_ms"`
	Seed     int64         `json:"seed"`
	Levels   []levelRow    `json:"levels"`
	Arms     []autotuneRow `json:"arms"`
	// TraceTicks is the closed loop's decision count, every one of them
	// reproduced by serve.ReplayTrace from Seed.
	TraceTicks int                `json:"trace_ticks"`
	Metrics    map[string]float64 `json:"metrics"` // closed-loop arm's registry
}

// levelRow is the hwsim cost every arm is scored against at one level.
type levelRow struct {
	Level     string  `json:"level"`
	FreqMHz   float64 `json:"freq_mhz"`
	Sparsity  float64 `json:"sparsity"`
	EnergyUJ  float64 `json:"energy_uj"`
	RelEnergy float64 `json:"rel_energy"`
}

type autotuneRow struct {
	Arm             string  `json:"arm"`
	Completed       int     `json:"completed"`
	Dropped         int     `json:"dropped"`
	P50MS           float64 `json:"p50_ms"`
	P95MS           float64 `json:"p95_ms"`
	P99MS           float64 `json:"p99_ms"`
	BatteryFraction float64 `json:"battery_fraction"`
	RelEnergy       float64 `json:"rel_energy"`
	Switches        int     `json:"switches"`
	Reward          float64 `json:"reward"`
}

// closedLoopArm names the autotuner's arm; the static arms are
// "static-" plus a level name.
const closedLoopArm = "rl-closed-loop"

// runAutotune compares static levels, the battery governor, and the
// closed-loop RL controller under the bursty profile, and verifies the
// closed-loop decision trace replays deterministically.
func runAutotune(seed int64) (*autotuneSection, error) {
	levels := make([]dvfs.Level, len(evalLevelNames))
	for i, name := range evalLevelNames {
		l, err := dvfs.LevelByName(name)
		if err != nil {
			return nil, err
		}
		levels[i] = l
	}
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), autotuneCycles)
	s := &autotuneSection{TargetMS: autotuneTargetMS, Seed: seed}
	for i, c := range costs {
		s.Levels = append(s.Levels, levelRow{
			Level: c.Level.Name, FreqMHz: c.Level.FreqMHz, Sparsity: evalSparsities[i],
			EnergyUJ: c.EnergyJ * 1e6, RelEnergy: c.RelEnergy,
		})
	}
	fmt.Printf("bursty profile: %d req/s base, %dx bursts every %s, %s total; target %dms, battery %.2f J, SimDVFS on\n\n",
		autotuneRPS, autotuneBurst, autotunePeriod, autotuneDuration, autotuneTargetMS, autotuneBatteryJ)
	printRows(os.Stdout, s.Levels)

	for i := range levels {
		row, _, err := runAutotuneArm(seed, "static-"+levels[i].Name, costs, i, serve.Config{})
		if err != nil {
			return nil, err
		}
		s.Arms = append(s.Arms, row)
	}
	row, _, err := runAutotuneArm(seed, "governor", costs, -1, serve.Config{
		Policy: serve.NewGovernorPolicy(levels, 64),
	})
	if err != nil {
		return nil, err
	}
	s.Arms = append(s.Arms, row)
	row, srv, err := runAutotuneArm(seed, closedLoopArm, costs, -1, serve.Config{
		Autotune: &serve.AutotuneConfig{Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	s.Arms = append(s.Arms, row)
	s.Metrics = srv.Metrics().Snapshot()
	printRows(os.Stdout, s.Arms)
	fmt.Printf("reward = (p95 <= %dms ? +1 : -1) + 0.8*(1-relE)*(1-battery+0.2) - dropped/offered\n\n", autotuneTargetMS)

	// the closed loop must be auditable: replay the recorded trace
	// through a fresh controller and require identical decisions
	tr, _ := srv.AutotuneTrace()
	replayed, err := serve.ReplayTrace(levels, dvfs.DefaultPowerModel(), autotuneCycles, tr)
	if err != nil {
		return nil, fmt.Errorf("autotune trace replay: %w", err)
	}
	s.TraceTicks = len(replayed)
	fmt.Printf("decision trace: %d ticks, replay from seed %d reproduced all decisions\n", len(replayed), tr.Seed)
	return s, nil
}

// runAutotuneArm builds a fresh deployment from seed (identical weights
// and pattern sets per arm), serves the bursty profile under cfg's
// controller, and scores the run; static >= 0 pins that level with no
// controller. It returns the stopped server, whose trace and registry
// stay readable.
func runAutotuneArm(seed int64, name string, costs []hwsim.LevelCost, static int, cfg serve.Config) (autotuneRow, *serve.Server, error) {
	d, err := serve.Deploy(serve.DeploySpec{
		Seed: seed, Levels: evalLevelNames, Sparsities: evalSparsities, PSize: 4, Patterns: 3,
	}, func(rng *rand.Rand) *transformer.Classifier {
		return transformer.NewClassifier(transformer.Config{
			Vocab: 24, Dim: 32, Heads: 2, FFHidden: 64, EncLayers: 2, SeqLen: 10, Classes: 3,
		}, rng)
	}, 1, serve.EngineConfig{})
	if err != nil {
		return autotuneRow{}, nil, err
	}
	defer d.Engine.Close()

	cfg.MaxBatch, cfg.QueueCap = 8, 4096
	cfg.TargetMS, cfg.BatteryJ, cfg.SimDVFS = autotuneTargetMS, autotuneBatteryJ, true
	cfg.CyclesPerInference = autotuneCycles
	srv := serve.New(d.Engine, cfg)
	srv.Start()
	defer srv.Stop()
	if static >= 0 {
		if _, err := srv.SwitchTo(static); err != nil {
			return autotuneRow{}, nil, err
		}
	}
	report, err := loadgen.Run(loadgen.Keyless(srv), loadgen.Spec{
		Duration:         autotuneDuration,
		Rate:             loadgen.SquareWave(loadgen.Ramp(autotuneRPS, autotuneRPS, autotuneDuration), autotunePeriod, autotuneBurst),
		Seed:             seed,
		ClassifyFraction: 1,
		Pool:             loadgen.TokenPool(seed, 10, 24),
	})
	if err != nil {
		return autotuneRow{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	sum := srv.Summary()
	row := autotuneRow{
		Arm: name, Completed: report.Completed(), Dropped: report.Shed,
		P50MS: sum.Overall.P50MS, P95MS: sum.Overall.P95MS, P99MS: sum.Overall.P99MS,
		BatteryFraction: sum.BatteryFraction, Switches: sum.Switches,
	}
	row.Reward, row.RelEnergy = autotuneScore(sum, report, costs)
	return row, srv, nil
}

// autotuneScore computes the composite latency/energy reward of one
// arm's full run: +1/-1 on the overall p95 against the target (p95, not
// p99, so two tail requests of host jitter cannot flip a verdict), the
// online reward's energy bonus on the run's request-weighted relative
// energy and final charge, minus the dropped fraction.
func autotuneScore(sum serve.Summary, report *loadgen.Report, costs []hwsim.LevelCost) (score, relEnergy float64) {
	byName := map[string]float64{}
	for _, c := range costs {
		byName[c.Level.Name] = c.RelEnergy
	}
	var wsum, n float64
	for _, ls := range sum.Levels {
		wsum += byName[ls.Level] * float64(ls.Count)
		n += float64(ls.Count)
	}
	relEnergy = 1
	if n > 0 {
		relEnergy = wsum / n
	}
	score = 1.0
	if sum.Overall.P95MS > autotuneTargetMS {
		score = -1
	}
	score += 0.8 * (1 - relEnergy) * (1 - sum.BatteryFraction + 0.2)
	if report.Offered > 0 {
		score -= float64(report.Shed) / float64(report.Offered)
	}
	return score, relEnergy
}

// floors holds the closed loop's reward to at least the worst static
// level's. The 0.1 tolerance (on a reward scale spanning ~2) absorbs
// scoreboard ties on noisy hosts without weakening the contract; runs
// shorter than ~1s have too few control ticks to learn and may
// legitimately sit at the floor.
func (s *autotuneSection) floors() ([]string, error) {
	var closed, worst, best *autotuneRow
	for i := range s.Arms {
		a := &s.Arms[i]
		switch {
		case a.Arm == closedLoopArm:
			closed = a
		case strings.HasPrefix(a.Arm, "static-"):
			if worst == nil || a.Reward < worst.Reward {
				worst = a
			}
			if best == nil || a.Reward > best.Reward {
				best = a
			}
		}
	}
	if closed == nil || worst == nil {
		return nil, fmt.Errorf("autotune floor FAIL: need a %s arm and at least one static arm", closedLoopArm)
	}
	if closed.Reward < worst.Reward-0.1 {
		return nil, fmt.Errorf("autotune floor FAIL: closed-loop reward %.3f fell below the worst static level %s (%.3f)",
			closed.Reward, worst.Arm, worst.Reward)
	}
	return []string{fmt.Sprintf("autotune floor PASS: closed-loop %.3f vs static best %.3f (%s) / worst %.3f (%s)",
		closed.Reward, best.Reward, best.Arm, worst.Reward, worst.Arm)}, nil
}
