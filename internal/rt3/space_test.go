package rt3_test

import (
	"math/rand"
	"strings"
	"testing"

	"rt3/internal/dvfs"
	"rt3/internal/rt3"
)

func buildSpace(t *testing.T, timingMS float64) (*rt3.SearchSpace, rt3.TaskModel, *rt3.Level1Result, *rt3.Predictor) {
	t.Helper()
	task := tinyLMTask(t, 1)
	l1, err := rt3.RunLevel1(task, 0.3, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	pr := rt3.NewPredictor(task)
	space, err := rt3.BuildSearchSpace(task, l1.Masks, pr, timingMS, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	return space, task, l1, pr
}

func TestSearchSpacePerLevelStructure(t *testing.T) {
	space, _, _, _ := buildSpace(t, 60)
	if len(space.PerLevel) != 3 {
		t.Fatalf("PerLevel groups %d", len(space.PerLevel))
	}
	for li, opts := range space.PerLevel {
		if len(opts) != 3 { // theta
			t.Fatalf("level %d has %d options", li, len(opts))
		}
		// options sorted by ascending sparsity (base, then tightened)
		for k := 1; k < len(opts); k++ {
			if space.Candidates[opts[k]].Sparsity < space.Candidates[opts[k-1]].Sparsity {
				t.Fatalf("level %d options not ascending: %v", li, opts)
			}
		}
	}
	// slower levels need at least the base sparsity of faster ones
	baseL6 := space.Candidates[space.PerLevel[0][0]].Sparsity
	baseL3 := space.Candidates[space.PerLevel[2][0]].Sparsity
	if baseL3 < baseL6 {
		t.Fatalf("l3 base sparsity %g < l6 base %g", baseL3, baseL6)
	}
}

func TestSearchSpaceCandidateFor(t *testing.T) {
	space, _, _, _ := buildSpace(t, 60)
	for li := range space.PerLevel {
		got := space.CandidateFor(li, 0)
		if got != space.PerLevel[li][0] {
			t.Fatalf("CandidateFor(%d, 0) = %d want %d", li, got, space.PerLevel[li][0])
		}
		// out-of-range choices wrap around instead of panicking
		wrapped := space.CandidateFor(li, len(space.PerLevel[li]))
		if wrapped != space.PerLevel[li][0] {
			t.Fatalf("CandidateFor wrap = %d want %d", wrapped, space.PerLevel[li][0])
		}
	}
}

func TestSearchSpaceCandidatesSortedAndDeduped(t *testing.T) {
	space, _, _, _ := buildSpace(t, 60)
	for i := 1; i < len(space.Candidates); i++ {
		if space.Candidates[i].Sparsity <= space.Candidates[i-1].Sparsity {
			t.Fatalf("candidates not strictly ascending at %d", i)
		}
	}
	for _, c := range space.Candidates {
		if len(c.Set.Patterns) != 4 { // M
			t.Fatalf("candidate has %d patterns", len(c.Set.Patterns))
		}
	}
}

func TestBuildSearchSpaceUnreachableTiming(t *testing.T) {
	task := tinyLMTask(t, 1)
	l1, err := rt3.RunLevel1(task, 0.3, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	pr := rt3.NewPredictor(task)
	_, err = rt3.BuildSearchSpace(task, l1.Masks, pr, 0.0001, rand.New(rand.NewSource(34)))
	if err == nil {
		t.Fatal("impossible timing constraint accepted")
	}
}

// TestMinFeasibleSparsity runs the exported scan on Table II's inputs:
// no BP masks, the dense model calibrated to 160 ms at l6.
func TestMinFeasibleSparsity(t *testing.T) {
	task := tinyLMTask(t, 1)
	levels := rt3.EvalLevels()
	pr := rt3.NewPredictor(task)
	pr.Calibrate(160, levels[0])
	prunable := task.PrunableParams()
	for _, tc := range []struct {
		name     string
		timingMS float64
		wantErr  bool
	}{
		{"table II constraint", 115, false},
		{"unreachable", 0.0001, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			prev := 0.0
			for _, lvl := range levels { // l6, l4, l3
				sp, masks, err := rt3.MinFeasibleSparsity(prunable, nil, pr, lvl, tc.timingMS, rng)
				if tc.wantErr {
					if err == nil || !strings.Contains(err.Error(), lvl.Name) {
						t.Fatalf("%s: err = %v, want one naming the level", lvl.Name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", lvl.Name, err)
				}
				if lat, _ := pr.Measure(masks, lvl); lat > tc.timingMS {
					t.Fatalf("%s: masks at sparsity %g take %.2f ms, above T = %g ms", lvl.Name, sp, lat, tc.timingMS)
				}
				if sp < prev {
					t.Fatalf("%s: sparsity %g falls below the faster level's %g", lvl.Name, sp, prev)
				}
				prev = sp
			}
		})
	}
}

func TestPredictorCalibrate(t *testing.T) {
	task := tinyLMTask(t, 1)
	pr := rt3.NewPredictor(task)
	level := dvfs.OdroidXU3Levels[5]
	f := pr.Calibrate(160, level)
	if f <= 0 {
		t.Fatalf("scale factor %g", f)
	}
	lat, _ := pr.Measure(nil, level)
	if lat < 159.9 || lat > 160.1 {
		t.Fatalf("calibrated dense latency %g != 160", lat)
	}
	if pr.ScaleFactor != f {
		t.Fatalf("ScaleFactor %g != %g", pr.ScaleFactor, f)
	}
	// calibrating again composes
	pr.Calibrate(320, level)
	lat, _ = pr.Measure(nil, level)
	if lat < 319.9 || lat > 320.1 {
		t.Fatalf("recalibrated latency %g != 320", lat)
	}
}

func TestRewardCondPenaltyAppearsInSearch(t *testing.T) {
	// sanity: search completes and best solution reports reward fields
	space, task, l1, pr := buildSpace(t, 60)
	_ = space
	_ = pr
	cfg := rt3.SearchConfig{TimingMS: 60, Episodes: 3, Seed: 35}
	res, err := rt3.Search(task, l1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.Best.Sets) != 3 {
		t.Fatalf("unexpected best: %+v", res.Best)
	}
	for _, set := range res.Best.Sets {
		if len(set.Patterns) < 1 || len(set.Patterns) > 2 {
			t.Fatalf("K=2 should deploy 1 or 2 patterns, got %d", len(set.Patterns))
		}
	}
}
