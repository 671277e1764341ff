package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/obs"
	"rt3/internal/rl"
)

// The closed-loop controller's learning constants.
const (
	// epsilonStart is the initial exploration rate of the epsilon-greedy
	// choice; every tick multiplies it by epsilonDecay, down to
	// epsilonMin.
	epsilonStart = 0.3
	epsilonDecay = 0.995
	epsilonMin   = 0.02
	// learnRate is the REINFORCE learning rate; the controller learns
	// online from every tick's reward.
	learnRate = 0.05
	// baselineDecay is the EMA reward-baseline decay.
	baselineDecay = 0.7
	// ctrlHidden is the controller RNN width.
	ctrlHidden = 8
	// traceCap bounds retained decisions. Once ticks are dropped the
	// trace is no longer replayable — AutotuneTrace.Dropped records how
	// many were lost.
	traceCap = 65536
)

// AutotuneConfig configures the closed-loop runtime controller. Only the
// seed varies; the rest is fixed: a 10ms control tick, exploration rate
// 0.3 decaying by 0.995 per tick down to 0.02, online REINFORCE at
// learning rate 0.05 against an EMA reward baseline of decay 0.7, an
// 8-wide controller RNN over rl.DefaultStateSpace, the online reward's
// energy weight 0.8, and a trace of up to 65536 decisions.
type AutotuneConfig struct {
	// Seed seeds the controller weights and the exploration stream; the
	// decision trace is a deterministic function of (seed, telemetry
	// sequence).
	Seed int64
}

// Telemetry is one sampled snapshot of the live serving signals the
// controller decides on: the recorder's sliding latency/fill window,
// queue depth, simulated battery charge, throughput rates differenced
// over the last tick, and the level the window ran at. The autotune
// loop samples it from the running server; tests construct it directly,
// so decisions are exercisable without wall-clock time.
type Telemetry struct {
	Window          WindowStats
	QueueDepth      int
	BatteryFraction float64
	Level           int     // active level when sampled
	TargetMS        float64 // latency objective (0 disables the term)
	CompletedPerSec float64 // completions/sec over the last tick
	TokensPerSec    float64 // generated tokens/sec over the last tick
}

// AutotuneDecision records one control tick. Tick, Tel, State, Level,
// Explore, Epsilon, Reward and TimingMet are produced by Autotuner.Step
// and are the replay-checked surface; Switched and SwitchCostMS are
// filled in by the live loop when the decision was applied as a switch.
type AutotuneDecision struct {
	Tick    int
	Tel     Telemetry
	State   int     // encoded rl state the decision conditioned on
	Level   int     // level the policy chose
	Explore bool    // exploration (sampled) vs exploitation (greedy)
	Epsilon float64 // exploration rate at this tick
	// Reward is the online reward credited to the previous decision from
	// this tick's window (0 on the first tick); TimingMet is its latency
	// verdict.
	Reward    float64
	TimingMet bool

	Switched     bool    // the loop applied a live switch for this decision
	SwitchCostMS float64 // modeled swap cost charged when it did
}

// SameAs reports whether two decisions agree on the replay-checked
// surface (everything Step computes; the applied-switch fields are
// live-loop bookkeeping and excluded).
func (d AutotuneDecision) SameAs(o AutotuneDecision) bool {
	return d.Tick == o.Tick && d.State == o.State && d.Level == o.Level &&
		d.Explore == o.Explore && d.Epsilon == o.Epsilon &&
		d.Reward == o.Reward && d.TimingMet == o.TimingMet
}

// AutotuneTrace is the auditable record of a controller run: the seed
// plus every decision in tick order. Because Autotuner.Step is a pure
// function of (config, seed, telemetry sequence), feeding the recorded
// telemetry back through a fresh controller reproduces the decisions
// exactly — ReplayTrace is the auditor.
type AutotuneTrace struct {
	Seed      int64
	Decisions []AutotuneDecision
	// Dropped counts decisions evicted past the trace cap; a trace with
	// Dropped > 0 is not replayable (the learning history is incomplete).
	Dropped int
}

// Autotuner is the per-replica-pool closed-loop controller: it converts
// sampled serving telemetry into the RL state space, queries the
// rl.Controller policy epsilon-greedily each control tick, credits the
// previous decision with the reward the observed window implies
// (rl.OnlineReward), and folds that reward back into the policy with a
// REINFORCE update. It never touches the clock or the server: the live
// loop samples telemetry and applies switches, tests drive Step directly
// with synthetic windows.
type Autotuner struct {
	mu    sync.Mutex
	seed  int64
	costs []hwsim.LevelCost
	ctrl  *rl.Controller
	base  *rl.Baseline
	rng   *rand.Rand
	eps   float64
	tick  int

	prev      *rl.Episode // last decision's episode, pending its reward
	prevLevel int

	trace    []AutotuneDecision
	traceCap int
	dropped  int

	// cumulative run accounting (guarded by mu), exposed via
	// RegisterMetrics so the controller is observable live.
	explores   int     // exploration (sampled) decisions
	violations int     // ticks whose reward verdict missed the target
	applied    int     // decisions the loop applied as live switches
	rewardSum  float64 // cumulative online reward (may be negative)
}

// NewAutotuner builds a controller over the deployed levels (fastest
// first, the bundle convention). cyclesPerInference feeds the hwsim
// cost table the reward's relative-energy term reads.
func NewAutotuner(levels []dvfs.Level, power dvfs.PowerModel, cyclesPerInference float64, cfg AutotuneConfig) (*Autotuner, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("serve: autotuner needs at least one level")
	}
	if cyclesPerInference <= 0 {
		return nil, fmt.Errorf("serve: autotuner needs positive cyclesPerInference, got %g", cyclesPerInference)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ctrl, err := rl.NewController(rl.Config{
		Hidden:  ctrlHidden,
		NumSets: len(levels), NumPatterns: 1, Levels: 1, K: 1,
		LR:     learnRate,
		States: rl.DefaultStateSpace().States(),
	}, rng)
	if err != nil {
		return nil, err
	}
	return &Autotuner{
		seed:     cfg.Seed,
		costs:    hwsim.LevelCosts(levels, power, cyclesPerInference),
		ctrl:     ctrl,
		base:     rl.NewBaseline(baselineDecay),
		rng:      rng,
		eps:      epsilonStart,
		traceCap: traceCap,
	}, nil
}

// Step runs one control tick on a telemetry snapshot and returns the
// decision: first the previous decision is credited with the reward the
// observed window implies (and reinforced), then the window is quantized
// into the controller's state and the next level is chosen
// epsilon-greedily. Deterministic given the construction
// arguments and the telemetry sequence — no clock, no global state.
func (a *Autotuner) Step(tel Telemetry) AutotuneDecision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tick++
	dec := AutotuneDecision{Tick: a.tick, Tel: tel, TimingMet: true}

	// 1. fold the observed window back as the previous action's reward.
	// The energy term reads tel.Level — the level the server actually
	// served the window at — not the level the previous decision asked
	// for: if the loop's switch was rejected the two differ, and
	// crediting the requested level would reinforce a phantom bonus.
	ranAt := tel.Level
	if ranAt < 0 || ranAt >= len(a.costs) {
		ranAt = a.prevLevel
	}
	if a.prev != nil {
		rr := rl.OnlineReward(rl.OnlineRewardInput{
			Samples:         tel.Window.Samples,
			P99MS:           tel.Window.P99MS,
			TargetMS:        tel.TargetMS,
			RelEnergy:       a.costs[ranAt].RelEnergy,
			BatteryFraction: tel.BatteryFraction,
		})
		dec.Reward = rr.Reward
		dec.TimingMet = rr.TimingMet
		a.rewardSum += rr.Reward
		if !rr.TimingMet {
			a.violations++
		}
		a.ctrl.Reinforce(a.prev, a.base.Update(rr.Reward))
	}

	// 2. quantize the window into the controller's context state
	ratio := 0.0
	if tel.TargetMS > 0 && tel.Window.Samples > 0 {
		ratio = tel.Window.P99MS / tel.TargetMS
	}
	dec.State = rl.DefaultStateSpace().Encode(ratio, tel.BatteryFraction, tel.Window.FillRatio)

	// 3. epsilon-greedy level choice conditioned on that state
	dec.Epsilon = a.eps
	var ep *rl.Episode
	if a.rng.Float64() < a.eps {
		dec.Explore = true
		a.explores++
		ep = a.ctrl.SampleSetFrom(dec.State, a.rng)
	} else {
		ep = a.ctrl.GreedySetFrom(dec.State)
	}
	if a.eps *= epsilonDecay; a.eps < epsilonMin {
		a.eps = epsilonMin
	}
	a.prev = ep
	a.prevLevel = ep.SetChoices[0] % len(a.costs)
	dec.Level = a.prevLevel

	if len(a.trace) >= a.traceCap {
		a.trace = a.trace[1:]
		a.dropped++
	}
	a.trace = append(a.trace, dec)
	return dec
}

// markApplied annotates the trace entry of the given tick with the live
// switch the loop performed for it.
func (a *Autotuner) markApplied(tick int, costMS float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applied++
	for i := len(a.trace) - 1; i >= 0; i-- {
		if a.trace[i].Tick == tick {
			a.trace[i].Switched = true
			a.trace[i].SwitchCostMS = costMS
			return
		}
	}
}

// RegisterMetrics exposes the controller's cumulative run accounting on
// an obs registry as read-callbacks (all mu-guarded snapshots).
func (a *Autotuner) RegisterMetrics(reg *obs.Registry) {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return f()
		}
	}
	reg.CounterFunc("rt3_autotune_ticks_total", "Control ticks stepped.",
		locked(func() float64 { return float64(a.tick) }))
	reg.CounterFunc("rt3_autotune_explore_total", "Exploration (sampled) decisions.",
		locked(func() float64 { return float64(a.explores) }))
	reg.CounterFunc("rt3_autotune_applied_total", "Decisions applied as live switches.",
		locked(func() float64 { return float64(a.applied) }))
	reg.CounterFunc("rt3_autotune_timing_violations_total",
		"Ticks whose reward verdict missed the latency target.",
		locked(func() float64 { return float64(a.violations) }))
	reg.GaugeFunc("rt3_autotune_reward_sum", "Cumulative online reward (may be negative).",
		locked(func() float64 { return a.rewardSum }))
	reg.GaugeFunc("rt3_autotune_epsilon", "Current exploration rate.",
		locked(func() float64 { return a.eps }))
}

// Trace snapshots the decision record so far.
func (a *Autotuner) Trace() AutotuneTrace {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AutotuneTrace{
		Seed:      a.seed,
		Decisions: append([]AutotuneDecision(nil), a.trace...),
		Dropped:   a.dropped,
	}
}

// ReplayTrace re-runs a recorded decision trace through a fresh
// controller built from the trace's seed, starting at the exploration
// rate its first decision records, feeding each recorded telemetry
// snapshot back through Step, and verifies every replayed decision
// matches the recorded one. It returns the replayed decisions; a
// mismatch (or an unreplayable truncated trace) is an error. This is the
// audit path: any run's level choices can be reproduced and inspected
// offline, without wall-clock time or a live server.
func ReplayTrace(levels []dvfs.Level, power dvfs.PowerModel, cyclesPerInference float64, tr AutotuneTrace) ([]AutotuneDecision, error) {
	if tr.Dropped > 0 {
		return nil, fmt.Errorf("serve: trace dropped %d decisions (trace cap exceeded); not replayable", tr.Dropped)
	}
	a, err := NewAutotuner(levels, power, cyclesPerInference, AutotuneConfig{Seed: tr.Seed})
	if err != nil {
		return nil, err
	}
	if len(tr.Decisions) > 0 {
		a.eps = tr.Decisions[0].Epsilon
	}
	out := make([]AutotuneDecision, 0, len(tr.Decisions))
	for i, rec := range tr.Decisions {
		got := a.Step(rec.Tel)
		if !got.SameAs(rec) {
			return out, fmt.Errorf("serve: replay diverged at tick %d (decision %d): recorded level %d state %d explore %v reward %g, replayed level %d state %d explore %v reward %g",
				rec.Tick, i, rec.Level, rec.State, rec.Explore, rec.Reward, got.Level, got.State, got.Explore, got.Reward)
		}
		out = append(out, got)
	}
	return out, nil
}

// controlEvery is the tick of the server's one level-selection loop.
const controlEvery = 10 * time.Millisecond

// controlLoop is the server's level-selection loop: every controlEvery
// it steps the closed-loop autotuner when one is configured — sampling
// live telemetry (sliding latency/fill window, queue depth, battery
// charge, throughput deltas) — and otherwise asks Config.Policy. A
// differing level is applied as a guarded live switch through the same
// drain path every reconfiguration takes, so it lands at step
// granularity, mid-generation.
func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(controlEvery)
	defer ticker.Stop()
	prevDone, prevTok := s.rec.Counters()
	last := time.Now()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		st := s.Status()
		if s.tuner == nil {
			if want := s.cfg.Policy.Decide(st); want != st.Level {
				s.SwitchTo(want) // a rejected switch keeps the level; the next tick asks again
			}
			continue
		}
		now := time.Now()
		dt := now.Sub(last).Seconds()
		last = now
		done, tok := s.rec.Counters()
		tel := Telemetry{
			Window:          s.rec.RecentStats(),
			QueueDepth:      st.QueueDepth,
			BatteryFraction: st.BatteryFraction,
			Level:           st.Level,
			TargetMS:        s.cfg.TargetMS,
		}
		if dt > 0 {
			tel.CompletedPerSec = float64(done-prevDone) / dt
			tel.TokensPerSec = float64(tok-prevTok) / dt
		}
		prevDone, prevTok = done, tok
		dec := s.tuner.Step(tel)
		if dec.Level != tel.Level {
			// a rejected switch (the engine validates and rolls back)
			// leaves Switched false in the trace, and the next tick's
			// Telemetry.Level shows the level the server actually
			// kept — Step credits reward against that, never against
			// the unapplied request.
			if cost, err := s.SwitchTo(dec.Level); err == nil {
				s.tuner.markApplied(dec.Tick, cost)
				s.tracer.NoteAutotuneTick(int64(dec.Tick))
				dec.Switched, dec.SwitchCostMS = true, cost
			}
		}
		if s.cfg.OnAutotuneDecision != nil {
			s.cfg.OnAutotuneDecision(dec)
		}
	}
}

// AutotuneTrace snapshots the closed-loop decision record; ok is false
// when autotuning is not configured.
func (s *Server) AutotuneTrace() (AutotuneTrace, bool) {
	if s.tuner == nil {
		return AutotuneTrace{}, false
	}
	return s.tuner.Trace(), true
}
