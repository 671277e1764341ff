package rl

import (
	"math"
	"math/rand"
	"testing"
)

func testConfig() Config {
	return Config{Hidden: 12, NumSets: 4, NumPatterns: 3, Levels: 3, K: 2, LR: 0.05}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Hidden: 0, NumSets: 1, NumPatterns: 1, Levels: 1, K: 1, LR: 0.1},
		{Hidden: 1, NumSets: 1, NumPatterns: 1, Levels: 1, K: 2, LR: 0.1}, // K > NumPatterns
		{Hidden: 1, NumSets: 1, NumPatterns: 1, Levels: 1, K: 1, LR: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := NewController(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.Sample(rng)
	if len(ep.SetChoices) != 3 {
		t.Fatalf("set choices %d", len(ep.SetChoices))
	}
	if len(ep.PatternChoices) != 3 {
		t.Fatalf("pattern choices %d", len(ep.PatternChoices))
	}
	for _, pc := range ep.PatternChoices {
		if len(pc) != 2 {
			t.Fatalf("K choices %d", len(pc))
		}
		for _, p := range pc {
			if p < 0 || p >= 3 {
				t.Fatalf("pattern choice %d out of range", p)
			}
		}
	}
	for _, s := range ep.SetChoices {
		if s < 0 || s >= 4 {
			t.Fatalf("set choice %d out of range", s)
		}
	}
	if ep.LogProb >= 0 {
		t.Fatalf("log prob %g should be negative", ep.LogProb)
	}
}

func TestReinforceLearnsBandit(t *testing.T) {
	// Reward 1 when the controller picks set 2 at every level, else 0.
	// After training, the policy must pick set 2 everywhere.
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	c, _ := NewController(cfg, rng)
	reward := func(e *Episode) float64 {
		for _, s := range e.SetChoices {
			if s != 2 {
				return 0
			}
		}
		return 1
	}
	train(c, rng, 400, reward)
	if r := meanReward(c, rng, reward); r < 0.9 {
		t.Fatalf("controller failed to learn bandit: mean reward %g", r)
	}
}

func TestReinforceLearnsPerLevelPattern(t *testing.T) {
	// Reward for picking pattern 0 at level 0 and pattern 2 elsewhere —
	// requires the RNN to condition on position.
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	cfg.K = 1
	c, _ := NewController(cfg, rng)
	reward := func(e *Episode) float64 {
		r := 0.0
		if e.PatternChoices[0][0] == 0 {
			r += 0.5
		}
		if e.PatternChoices[1][0] == 2 && e.PatternChoices[2][0] == 2 {
			r += 0.5
		}
		return r
	}
	train(c, rng, 600, reward)
	if r := meanReward(c, rng, reward); r < 0.9 {
		t.Fatalf("position-dependent policy not learned: mean reward %g", r)
	}
}

// train runs REINFORCE with a moving-average baseline for n episodes.
func train(c *Controller, rng *rand.Rand, n int, reward func(*Episode) float64) {
	baseline := NewBaseline(0.8)
	for i := 0; i < n; i++ {
		e := c.Sample(rng)
		c.Reinforce(e, baseline.Update(reward(e)))
	}
}

// meanReward is the trained policy's mean reward over 100 sampled
// episodes.
func meanReward(c *Controller, rng *rand.Rand, reward func(*Episode) float64) float64 {
	var sum float64
	for i := 0; i < 100; i++ {
		sum += reward(c.Sample(rng))
	}
	return sum / 100
}

func TestBaselineConvergesToMean(t *testing.T) {
	b := NewBaseline(0.9)
	for i := 0; i < 500; i++ {
		b.Update(2.0)
	}
	if adv := b.Update(2.0); math.Abs(adv) > 1e-6 {
		t.Fatalf("advantage of the mean reward %g, want 0", adv)
	}
}

func TestBaselineFirstAdvantageZero(t *testing.T) {
	b := NewBaseline(0.9)
	if adv := b.Update(5); adv != 0 {
		t.Fatalf("first advantage %g, want 0", adv)
	}
}

func TestRewardTimingViolation(t *testing.T) {
	res := Reward(RewardInput{
		LatencyMS:          []float64{90, 120},
		Runs:               []float64{100, 200},
		TimingConstraintMS: 100,
		RunsNorm:           1000,
	})
	if res.TimingMet {
		t.Fatal("timing should be violated")
	}
	want := -1 + 300.0/1000
	if math.Abs(res.Reward-want) > 1e-12 {
		t.Fatalf("reward %g want %g", res.Reward, want)
	}
}

func TestRewardFeasibleMonotone(t *testing.T) {
	in := RewardInput{
		LatencyMS:          []float64{80, 90},
		Runs:               []float64{100, 300},
		Acc:                []float64{0.9, 0.8}, // decreasing: cond holds
		TimingConstraintMS: 100,
		AccOriginal:        0.95,
		AccMin:             0.5,
		Penalty:            0.3,
		RunsNorm:           1000,
	}
	res := Reward(in)
	if !res.TimingMet || !res.CondHolds {
		t.Fatalf("unexpected flags: %+v", res)
	}
	aw := (0.9 + 0.8) / 2
	want := (aw-0.5)/(0.95-0.5) + 0.4
	if math.Abs(res.Reward-want) > 1e-12 {
		t.Fatalf("reward %g want %g", res.Reward, want)
	}
}

func TestRewardPenaltyWhenCondFails(t *testing.T) {
	in := RewardInput{
		LatencyMS:          []float64{80, 90},
		Runs:               []float64{100, 100},
		Acc:                []float64{0.7, 0.9}, // increasing: cond fails
		TimingConstraintMS: 100,
		AccOriginal:        0.95,
		AccMin:             0.5,
		Penalty:            0.3,
		RunsNorm:           1000,
	}
	res := Reward(in)
	if res.CondHolds {
		t.Fatal("cond should fail")
	}
	noPen := res.Reward + 0.3
	in.Acc = []float64{0.9, 0.7}
	res2 := Reward(in)
	if math.Abs(res2.Reward-noPen) > 1e-12 {
		t.Fatalf("penalty not exactly %g: %g vs %g", 0.3, res2.Reward, noPen)
	}
}

func TestRewardRunsNormalizationCaps(t *testing.T) {
	res := Reward(RewardInput{
		LatencyMS:          []float64{200},
		Runs:               []float64{1e12},
		TimingConstraintMS: 100,
		RunsNorm:           10,
	})
	if res.RRuns != 1 {
		t.Fatalf("R_runs should cap at 1, got %g", res.RRuns)
	}
}

func TestRewardWeightedAccuracy(t *testing.T) {
	in := RewardInput{
		LatencyMS:          []float64{10, 10},
		Runs:               []float64{1, 1},
		Acc:                []float64{1.0, 0.0},
		Weights:            []float64{3, 1},
		TimingConstraintMS: 100,
		AccOriginal:        1,
		AccMin:             0,
		RunsNorm:           100,
	}
	res := Reward(in)
	if math.Abs(res.WeightedAcc-0.75) > 1e-12 {
		t.Fatalf("weighted acc %g want 0.75", res.WeightedAcc)
	}
}

func TestSampleSetSingleDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c, err := NewController(testConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.SampleSetFrom(-1, rng)
	if len(ep.SetChoices) != 1 || len(ep.PatternChoices) != 0 {
		t.Fatalf("episode shape %d/%d, want 1 set decision only", len(ep.SetChoices), len(ep.PatternChoices))
	}
	if a := ep.SetChoices[0]; a < 0 || a >= testConfig().NumSets {
		t.Fatalf("action %d out of range", a)
	}
	if ep.LogProb >= 0 {
		t.Fatalf("log prob %g should be negative", ep.LogProb)
	}
	// the one-step episode must feed REINFORCE without panicking
	c.Reinforce(ep, 0.5)
}
