package rl

import (
	"math/rand"
	"testing"
)

func TestStateSpaceEncodeBounds(t *testing.T) {
	s := DefaultStateSpace()
	n := s.States()
	if n != 18 {
		t.Fatalf("default States() = %d, want 18 (3*3*2)", n)
	}
	seen := map[int]bool{}
	for _, ratio := range []float64{-1, 0, 0.3, 0.6, 0.9, 1, 2.5} {
		for _, bat := range []float64{-0.1, 0, 0.2, 0.5, 0.99, 1, 1.3} {
			for _, fill := range []float64{0, 0.4, 0.9, 1} {
				st := s.Encode(ratio, bat, fill)
				if st < 0 || st >= n {
					t.Fatalf("Encode(%g,%g,%g) = %d out of [0,%d)", ratio, bat, fill, st, n)
				}
				seen[st] = true
			}
		}
	}
	if len(seen) < n/2 {
		t.Fatalf("sweep reached only %d/%d states", len(seen), n)
	}
}

func TestStateSpaceLatencyBins(t *testing.T) {
	s := DefaultStateSpace()
	// same battery/fill: only the latency bin may differ
	headroom := s.Encode(0.2, 1, 0)
	approach := s.Encode(0.8, 1, 0)
	violate := s.Encode(1.5, 1, 0)
	if headroom == approach || approach == violate || headroom == violate {
		t.Fatalf("latency regimes not distinguished: %d %d %d", headroom, approach, violate)
	}
	// a violating window encodes identically regardless of magnitude
	if s.Encode(1.0, 1, 0) != s.Encode(10, 1, 0) {
		t.Fatal("violation bin should saturate")
	}
}

func TestStateSpaceValidate(t *testing.T) {
	if err := (StateSpace{LatencyBins: 1, BatteryBins: 1, FillBins: 1}).Validate(); err == nil {
		t.Fatal("LatencyBins=1 should fail Validate")
	}
	if err := DefaultStateSpace().Validate(); err != nil {
		t.Fatalf("default space invalid: %v", err)
	}
}

func TestSampleSetFromConditioning(t *testing.T) {
	cfg := Config{Hidden: 8, NumSets: 3, NumPatterns: 1, Levels: 1, K: 1, LR: 0.1, States: 4}
	ctrl, err := NewController(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// the same rng stream through different states must be reproducible
	// state by state (determinism) and the greedy arm must be stable
	for state := 0; state < 4; state++ {
		a := ctrl.GreedySetFrom(state)
		b := ctrl.GreedySetFrom(state)
		if a.SetChoices[0] != b.SetChoices[0] {
			t.Fatalf("greedy decision for state %d not deterministic", state)
		}
	}
	// out-of-range states panic rather than silently aliasing
	defer func() {
		if recover() == nil {
			t.Fatal("state beyond Config.States should panic")
		}
	}()
	ctrl.GreedySetFrom(4)
}

func TestSampleSetFromLearnsPerState(t *testing.T) {
	// two states with opposite best actions: reinforcing state-conditioned
	// episodes must drive the greedy decisions apart
	cfg := Config{Hidden: 8, NumSets: 2, NumPatterns: 1, Levels: 1, K: 1, LR: 0.2, States: 2}
	rng := rand.New(rand.NewSource(7))
	ctrl, err := NewController(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(0.7)
	for i := 0; i < 400; i++ {
		state := i % 2
		ep := ctrl.SampleSetFrom(state, rng)
		reward := -1.0
		if ep.SetChoices[0] == state { // state 0 wants action 0, state 1 wants 1
			reward = 1
		}
		ctrl.Reinforce(ep, base.Update(reward))
	}
	if got := ctrl.GreedySetFrom(0).SetChoices[0]; got != 0 {
		t.Fatalf("state 0 greedy action = %d, want 0", got)
	}
	if got := ctrl.GreedySetFrom(1).SetChoices[0]; got != 1 {
		t.Fatalf("state 1 greedy action = %d, want 1", got)
	}
}

func TestSampleSetFromFallback(t *testing.T) {
	// SampleSetFrom(-1) starts from the start token, so it decides
	// exactly like the first step of Sample on the same rng stream
	cfg := Config{Hidden: 8, NumSets: 3, NumPatterns: 1, Levels: 1, K: 1, LR: 0.1}
	c, _ := NewController(cfg, rand.New(rand.NewSource(3)))
	for seed := int64(0); seed < 20; seed++ {
		full := c.Sample(rand.New(rand.NewSource(seed)))
		if got := c.SampleSetFrom(-1, rand.New(rand.NewSource(seed))); got.SetChoices[0] != full.SetChoices[0] {
			t.Fatalf("seed %d: SampleSetFrom(-1) picked %d, Sample's first step %d", seed, got.SetChoices[0], full.SetChoices[0])
		}
	}
}

func TestOnlineReward(t *testing.T) {
	// violation dominates: no energy offset
	r := OnlineReward(OnlineRewardInput{Samples: 10, P99MS: 30, TargetMS: 20, RelEnergy: 0.5, BatteryFraction: 0})
	if r.TimingMet || r.Reward != -1 {
		t.Fatalf("violating window: %+v, want reward -1", r)
	}
	// holding the target earns 1 + energy bonus
	r = OnlineReward(OnlineRewardInput{Samples: 10, P99MS: 10, TargetMS: 20, RelEnergy: 0.5, BatteryFraction: 0.5})
	want := 1 + 0.8*0.5*0.7
	if !r.TimingMet || !closeTo(r.Reward, want) {
		t.Fatalf("holding window: reward %g, want %g", r.Reward, want)
	}
	// empty window: no latency evidence, energy shaping only
	r = OnlineReward(OnlineRewardInput{Samples: 0, TargetMS: 20, RelEnergy: 0.5, BatteryFraction: 1})
	if !closeTo(r.Reward, 0.8*0.5*0.2) || !r.TimingMet {
		t.Fatalf("empty window: %+v", r)
	}
	// the fastest level earns no bonus
	r = OnlineReward(OnlineRewardInput{Samples: 5, P99MS: 1, TargetMS: 20, RelEnergy: 1, BatteryFraction: 0})
	if !closeTo(r.Reward, 1) {
		t.Fatalf("fastest level: reward %g, want 1", r.Reward)
	}
	// no target configured: latency term disabled even with samples
	r = OnlineReward(OnlineRewardInput{Samples: 5, P99MS: 999, TargetMS: 0, RelEnergy: 1, BatteryFraction: 1})
	if !closeTo(r.Reward, 0) {
		t.Fatalf("no target: reward %g, want 0", r.Reward)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
