package serve_test

import (
	"math/rand"
	"testing"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/dvfs"
	"rt3/internal/loadgen"
	"rt3/internal/mat"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// levelNames / sparsities define the three-section test deployment
// ({l6, l4, l3}, the paper's evaluation levels, fastest first).
var (
	levelNames = []string{"l6", "l4", "l3"}
	sparsities = []float64{0.3, 0.5, 0.7}
)

// newTestDeployment builds a tiny classifier, serializes its bundle
// through bytes (exercising the wire format), reloads it, and deploys it
// onto the requested number of cloned replicas.
func newTestDeployment(t testing.TB, replicas int) (*serve.Engine, *deploy.Bundle) {
	t.Helper()
	d, err := serve.Deploy(testSpec(3, 4), func(rng *rand.Rand) *transformer.Classifier {
		return transformer.NewClassifier(transformer.Config{
			Vocab: 24, Dim: 8, Heads: 2, FFHidden: 16, EncLayers: 2, SeqLen: 10, Classes: 3,
		}, rng)
	}, replicas, serve.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d.Engine, d.Bundle
}

// testSpec is the three-level test deployment drawn from seed, with
// three candidate psize x psize patterns per level.
func testSpec(seed int64, psize int) serve.DeploySpec {
	return serve.DeploySpec{Seed: seed, Levels: levelNames, Sparsities: sparsities, PSize: psize, Patterns: 3}
}

func randSeqs(n, seqLen, vocab int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		seq := make([]int, seqLen)
		for j := range seq {
			seq[j] = rng.Intn(vocab)
		}
		out[i] = seq
	}
	return out
}

// TestEnginePackedMatchesDense verifies the core serving invariant: at
// every level, the packed-kernel forward pass equals masked dense
// execution element-for-element, and switching charges exactly the cost
// model's pattern-swap time for the section's serialized size.
func TestEnginePackedMatchesDense(t *testing.T) {
	eng, bundle := newTestDeployment(t, 1)
	costs := rtswitch.DefaultSwitchCostModel()
	seqs := randSeqs(4, 10, 24, 5)
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		cost, err := eng.SwitchTo(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if lvl > 0 {
			maskBytes, err := bundle.SetBytes(lvl)
			if err != nil {
				t.Fatal(err)
			}
			want := costs.PatternSwitchMS(maskBytes)
			if cost != want {
				t.Fatalf("level %d switch cost %g, want %g", lvl, cost, want)
			}
		}
		for _, ids := range seqs {
			got := eng.Forward(0, ids)
			ref, err := eng.DenseForward(lvl, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !mat.Equal(got, ref, 1e-9) {
				t.Fatalf("level %s: packed forward differs from masked dense execution", eng.LevelName(lvl))
			}
		}
	}
	// sections must differ: a sparser level keeps fewer weights
	outs := make([]*mat.Matrix, eng.NumLevels())
	for lvl := range outs {
		var err error
		outs[lvl], err = eng.DenseForward(lvl, seqs[0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if mat.Equal(outs[0], outs[2], 1e-12) {
		t.Fatal("fastest and slowest levels produced identical outputs; pattern sets not applied")
	}
}

// TestServerHotSwapMidTraffic is the end-to-end reconfiguration test:
// a serialized bundle is loaded into a running batched server, the level
// is switched repeatedly mid-traffic, and every response must be
// element-identical to dense execution at the level it was served on,
// with nothing dropped.
func TestServerHotSwapMidTraffic(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	s := serve.New(eng, serve.Config{
		MaxBatch: 4,
		QueueCap: 1024,
	})
	s.Start()

	pool := randSeqs(8, 10, 24, 7)
	const n = 200
	type tagged struct {
		poolIdx int
		ch      <-chan serve.Response
	}
	var inflight []tagged
	schedule := []int{1, 2, 0} // switch targets, applied mid-stream
	for i := 0; i < n; i++ {
		if i > 0 && i%50 == 0 {
			target := schedule[(i/50)-1]
			if _, err := s.SwitchTo(target); err != nil {
				t.Fatal(err)
			}
		}
		idx := i % len(pool)
		ch, err := s.Submit(pool[idx])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		inflight = append(inflight, tagged{poolIdx: idx, ch: ch})
		time.Sleep(100 * time.Microsecond)
	}
	responses := make([]serve.Response, n)
	for i, p := range inflight {
		responses[i] = <-p.ch
	}
	s.Stop()

	switches, modelMS, _ := s.Recorder().Switches()
	if switches != len(schedule) {
		t.Fatalf("switches %d, want %d", switches, len(schedule))
	}
	if modelMS <= 0 {
		t.Fatal("switch cost not charged")
	}
	if d := s.Recorder().Drops(); d != 0 {
		t.Fatalf("%d requests dropped", d)
	}
	// verify every response against dense execution at its level
	refs := map[[2]int]*mat.Matrix{}
	levelsSeen := map[int]bool{}
	for i, p := range inflight {
		resp := responses[i]
		levelsSeen[resp.Level] = true
		key := [2]int{resp.Level, p.poolIdx}
		ref, ok := refs[key]
		if !ok {
			var err error
			ref, err = s.DenseReference(resp.Level, pool[p.poolIdx])
			if err != nil {
				t.Fatal(err)
			}
			refs[key] = ref
		}
		if !mat.Equal(resp.Out, ref, 1e-9) {
			t.Fatalf("response %d (level %d) differs from dense execution", i, resp.Level)
		}
	}
	if len(levelsSeen) < 2 {
		t.Fatalf("traffic only saw levels %v; switches did not take effect mid-stream", levelsSeen)
	}
}

// TestDynamicBatching checks the step loop's batch bound: requests
// queued before Start ride the first pass together, MaxBatch at a time.
func TestDynamicBatching(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{MaxBatch: 4})
	defer s.Stop()

	seq := randSeqs(1, 10, 24, 9)[0]
	var chans []<-chan serve.Response
	for i := 0; i < 6; i++ {
		ch, err := s.Submit(seq)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Start()
	for i, ch := range chans {
		want := 4
		if i >= 4 {
			want = 2
		}
		if resp := <-ch; resp.BatchSize != want {
			t.Fatalf("response %d rode batch of %d, want %d", i, resp.BatchSize, want)
		}
	}
}

// TestSubmitAdmission checks the bounded-queue and lifecycle errors.
func TestSubmitAdmission(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	s := serve.New(eng, serve.Config{QueueCap: 2})
	seq := randSeqs(1, 10, 24, 11)[0]
	// not started: the queue fills and the third request is rejected
	var queued []<-chan serve.Response
	for i := 0; i < 2; i++ {
		ch, err := s.Submit(seq)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, ch)
	}
	if _, err := s.Submit(seq); err != serve.ErrQueueFull {
		t.Fatalf("err %v, want ErrQueueFull", err)
	}
	if d := s.Recorder().Drops(); d != 1 {
		t.Fatalf("drops %d, want 1", d)
	}
	s.Stop()
	// never-started server: queued requests are answered with ErrStopped
	for i, ch := range queued {
		if resp := <-ch; resp.Err != serve.ErrStopped {
			t.Fatalf("queued request %d got %+v, want ErrStopped", i, resp)
		}
	}
	if _, err := s.Submit(seq); err != serve.ErrStopped {
		t.Fatalf("err %v, want ErrStopped", err)
	}
}

// TestGovernorPolicyDecisions unit-tests the battery-driven policy with
// queue-pressure escalation.
func TestGovernorPolicyDecisions(t *testing.T) {
	levels := []dvfs.Level{dvfs.OdroidXU3Levels[5], dvfs.OdroidXU3Levels[3], dvfs.OdroidXU3Levels[2]}
	p := serve.NewGovernorPolicy(levels, 10)
	if got := p.Decide(serve.Status{BatteryFraction: 0.9}); got != 0 {
		t.Fatalf("full battery picked level %d", got)
	}
	if got := p.Decide(serve.Status{BatteryFraction: 0.5}); got != 1 {
		t.Fatalf("half battery picked level %d", got)
	}
	if got := p.Decide(serve.Status{BatteryFraction: 0.1}); got != 2 {
		t.Fatalf("low battery picked level %d", got)
	}
	// queue pressure buys one level back
	if got := p.Decide(serve.Status{BatteryFraction: 0.1, QueueDepth: 12}); got != 1 {
		t.Fatalf("pressured low battery picked level %d", got)
	}
	if got := p.Decide(serve.Status{BatteryFraction: 0.9, QueueDepth: 12}); got != 0 {
		t.Fatalf("pressured full battery picked level %d", got)
	}
}

// TestLoadWithGovernor replays an open-loop ramp against a server
// whose simulated battery drains under load: the governor must perform
// live switches and every response must verify against dense execution.
func TestLoadWithGovernor(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	s := serve.New(eng, serve.Config{
		MaxBatch: 4,
		QueueCap: 4096,
		Policy:   serve.NewGovernorPolicy(eng.Levels(), 0),
		BatteryJ: 0.05,
	})
	s.Start()
	defer s.Stop()

	spec := loadgen.Spec{
		Duration:         300 * time.Millisecond,
		Rate:             loadgen.Ramp(300, 800, 300*time.Millisecond),
		Seed:             17,
		ClassifyFraction: 1,
		Pool:             loadgen.TokenPool(17, 10, 24),
		Verify:           s,
	}
	report, err := loadgen.Run(loadgen.Keyless(s), spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Shed != 0 || report.Failed != 0 {
		t.Fatalf("%d shed, %d failed", report.Shed, report.Failed)
	}
	if report.Completed() != report.Offered {
		t.Fatalf("completed %d != offered %d", report.Completed(), report.Offered)
	}
	if report.Verified != report.Offered || report.Mismatches != 0 {
		t.Fatalf("%d of %d verified responses mismatched dense execution", report.Mismatches, report.Verified)
	}
	sum := s.Summary()
	if sum.Switches < 1 {
		t.Fatal("no live switch under battery drain")
	}
	if len(sum.Levels) < 2 {
		t.Fatalf("only %d levels served traffic", len(sum.Levels))
	}
	if sum.Overall.Count != report.Offered || sum.BatteryFraction >= 1 {
		t.Fatalf("recorder saw %d of %d requests, battery at %.2f", sum.Overall.Count, report.Offered, sum.BatteryFraction)
	}
	_, _ = report.String(), sum.String()

	// the re-check is not vacuous: the same traffic through a target that
	// perturbs one logit of every answer mismatches every time
	spec.Duration = 40 * time.Millisecond
	report, err = loadgen.Run(tampering{loadgen.Keyless(s)}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verified == 0 || report.Mismatches != report.Verified {
		t.Fatalf("tampered run: %d of %d verified responses flagged", report.Mismatches, report.Verified)
	}
}

// tampering nudges the first logit of every classification on its way
// back from the wrapped target.
type tampering struct{ loadgen.Submitter }

func (t tampering) Submit(key uint64, tokens []int) (<-chan serve.Response, error) {
	ch, err := t.Submitter.Submit(key, tokens)
	if err != nil {
		return nil, err
	}
	out := make(chan serve.Response, 1)
	go func() {
		r := <-ch
		if r.Err == nil {
			r.Out = r.Out.Clone()
			r.Out.Data[0] += 1e-6
		}
		out <- r
	}()
	return out, nil
}
