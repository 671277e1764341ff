package serve_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/loadgen"
	"rt3/internal/serve"
)

// autotuneLevels is the wide V/F span the closed-loop tests run over
// (fastest first): l1 at 400 MHz models 3.5x the execution time of l6.
func autotuneLevels(t *testing.T) []dvfs.Level {
	t.Helper()
	var out []dvfs.Level
	for _, name := range []string{"l6", "l3", "l1"} {
		l, err := dvfs.LevelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// simTelemetry models the environment the controller sees when the
// server runs at the given level: windowed p99 latency proportional to
// the level's relative slowdown, and a battery draining with the
// level's relative energy. Deterministic — the closed-loop tests run
// without wall-clock time.
func simTelemetry(costs []hwsim.LevelCost, level int, battery, targetMS float64) serve.Telemetry {
	return serve.Telemetry{
		Window: serve.WindowStats{
			Samples:   64,
			P99MS:     6 * costs[level].RelLatency, // l6 6ms, l3 10.5ms, l1 21ms
			FillRatio: 0.5,
		},
		BatteryFraction: battery,
		Level:           level,
		TargetMS:        targetMS,
	}
}

// TestAutotunerTraceReplay pins the auditability contract: feeding the
// recorded telemetry back through a fresh controller with the same
// configuration and seed reproduces every decision exactly.
func TestAutotunerTraceReplay(t *testing.T) {
	levels := autotuneLevels(t)
	power := dvfs.DefaultPowerModel()
	cfg := serve.AutotuneConfig{Seed: 11}
	at, err := serve.NewAutotuner(levels, power, 2e6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	costs := at.LevelCosts()

	// drive a live-looking run: telemetry follows the controller's own
	// level choices while the battery drains
	battery, level := 1.0, 0
	for i := 0; i < 300; i++ {
		dec := at.Step(simTelemetry(costs, level, battery, 15))
		level = dec.Level
		battery = math.Max(0, battery-costs[level].RelEnergy/250)
	}
	tr := at.Trace()
	if len(tr.Decisions) != 300 {
		t.Fatalf("trace has %d decisions, want 300", len(tr.Decisions))
	}

	replayed, err := serve.ReplayTrace(levels, power, 2e6, cfg, tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i := range replayed {
		if !replayed[i].SameAs(tr.Decisions[i]) {
			t.Fatalf("decision %d diverged: live %+v vs replay %+v", i, tr.Decisions[i], replayed[i])
		}
	}
}

// TestAutotunerTraceCapTruncationNotReplayable: once TraceCap evicts
// decisions the learning history is incomplete and replay must refuse.
func TestAutotunerTraceCapTruncationNotReplayable(t *testing.T) {
	levels := autotuneLevels(t)
	power := dvfs.DefaultPowerModel()
	cfg := serve.AutotuneConfig{Seed: 3, TraceCap: 16}
	at, err := serve.NewAutotuner(levels, power, 2e6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	costs := at.LevelCosts()
	for i := 0; i < 40; i++ {
		at.Step(simTelemetry(costs, 0, 1, 15))
	}
	tr := at.Trace()
	if tr.Dropped != 24 || len(tr.Decisions) != 16 {
		t.Fatalf("Dropped=%d len=%d, want 24/16", tr.Dropped, len(tr.Decisions))
	}
	if _, err := serve.ReplayTrace(levels, power, 2e6, cfg, tr); err == nil {
		t.Fatal("truncated trace replayed without error")
	}
}

// TestAutotunerBeatsWorstStaticLevel runs the controller and each
// static level through the same deterministic environment and compares
// cumulative online reward: the closed loop must beat the worst static
// choice (l1, which violates the target every window) by a wide margin,
// and must end within reach of the best.
func TestAutotunerBeatsWorstStaticLevel(t *testing.T) {
	levels := autotuneLevels(t)
	power := dvfs.DefaultPowerModel()
	const ticks, targetMS, cycles = 500, 15.0, 2e6
	costs := hwsim.LevelCosts(levels, power, cycles)

	// static arms: replaying the same environment at a pinned level
	static := make([]float64, len(levels))
	for lvl := range levels {
		battery := 1.0
		for i := 0; i < ticks; i++ {
			tel := simTelemetry(costs, lvl, battery, targetMS)
			r := 1.0
			if tel.Window.P99MS > targetMS {
				r = -1
			} else {
				r += 0.8 * (1 - costs[lvl].RelEnergy) * (1 - battery + 0.2)
			}
			static[lvl] += r
			battery = math.Max(0, battery-costs[lvl].RelEnergy/250)
		}
	}

	at, err := serve.NewAutotuner(levels, power, cycles, serve.AutotuneConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var closed float64
	battery, level := 1.0, 0
	for i := 0; i < ticks; i++ {
		dec := at.Step(simTelemetry(costs, level, battery, targetMS))
		closed += dec.Reward
		level = dec.Level
		battery = math.Max(0, battery-costs[level].RelEnergy/250)
	}

	worst, best := static[0], static[0]
	for _, s := range static[1:] {
		worst = math.Min(worst, s)
		best = math.Max(best, s)
	}
	t.Logf("closed-loop %.1f, static %v (worst %.1f, best %.1f)", closed, static, worst, best)
	if worst != static[2] {
		t.Fatalf("environment sanity: l1 should be the worst static level, got %v", static)
	}
	if closed <= worst {
		t.Fatalf("closed loop (%.1f) did not beat the worst static level (%.1f)", closed, worst)
	}
	if closed < 0.5*best {
		t.Fatalf("closed loop (%.1f) ended far from the best static level (%.1f)", closed, best)
	}
}

// TestAutotuneServerLiveTrace drives a real server with the closed loop
// enabled under load and checks the contract end to end: decisions were
// made from live telemetry, applied switches drained cleanly (responses
// all verify against dense execution), and the recorded trace replays.
func TestAutotuneServerLiveTrace(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	defer eng.Close()
	atCfg := serve.AutotuneConfig{
		Every:   2 * time.Millisecond,
		Epsilon: 0.9, // switch-happy: this test is about drains, not learning
		Seed:    5,
	}
	srv := serve.New(eng, serve.Config{
		MaxBatch: 4, MaxDelay: time.Millisecond, QueueCap: 1024,
		TargetMS: 20, BatteryJ: 0.05, Autotune: &atCfg,
	})
	srv.Start()
	defer srv.Stop()

	report, err := loadgen.Run(loadgen.Keyless(srv), loadgen.Spec{
		Duration: 250 * time.Millisecond,
		Rate:     loadgen.SquareWave(loadgen.Ramp(300, 900, 250*time.Millisecond), 60*time.Millisecond, 3),
		Seed:     8, ClassifyFraction: 1, Pool: loadgen.TokenPool(8, 10, 24), Verify: srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Verified == 0 || report.Mismatches != 0 {
		t.Fatalf("%d of %d responses mismatched dense execution across live switches", report.Mismatches, report.Verified)
	}
	tr, ok := srv.AutotuneTrace()
	if !ok || len(tr.Decisions) == 0 {
		t.Fatal("no autotune trace recorded")
	}
	applied := 0
	for _, d := range tr.Decisions {
		if d.Switched {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("closed loop never applied a switch under a 0.9-epsilon policy")
	}
	if srv.Summary().Switches == 0 {
		t.Fatal("recorder saw no switches")
	}
	if _, err := serve.ReplayTrace(eng.Levels(), dvfs.DefaultPowerModel(), 2e6, atCfg, tr); err != nil {
		t.Fatalf("live trace replay: %v", err)
	}
}

// TestAutotuneGenerateMode: the closed loop drives switches at
// decode-step granularity while generations are in flight.
func TestAutotuneGenerateMode(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	defer eng.Close()
	atCfg := serve.AutotuneConfig{Every: time.Millisecond, Epsilon: 0.9, Seed: 4}
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 256,
		MaxGenTokens: 12, TargetMS: 20, BatteryJ: 0.05, Autotune: &atCfg,
	})
	srv.Start()
	defer srv.Stop()

	rng := rand.New(rand.NewSource(2))
	var chans []<-chan serve.GenResponse
	for i := 0; i < 48; i++ {
		prompt := make([]int, 3+rng.Intn(5))
		for j := range prompt {
			prompt[j] = rng.Intn(24)
		}
		ch, err := srv.SubmitGen(prompt, 8, -1)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		time.Sleep(time.Millisecond)
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("generation %d: %v", i, resp.Err)
		}
		if len(resp.Tokens) == 0 {
			t.Fatalf("generation %d returned no tokens", i)
		}
	}
	tr, ok := srv.AutotuneTrace()
	if !ok || len(tr.Decisions) == 0 {
		t.Fatal("no autotune trace in generate mode")
	}
}

// TestRecorderWindowEdgeCases pins the telemetry window's empty and
// single-sample behaviour — the states the controller sees at startup.
func TestRecorderWindowEdgeCases(t *testing.T) {
	rec := serve.NewRecorder([]string{"l6", "l3"})

	empty := rec.RecentStats()
	if empty.Samples != 0 {
		t.Fatalf("empty window Samples = %d", empty.Samples)
	}
	if empty.P50MS != 0 || empty.P99MS != 0 || empty.FillRatio != 0 {
		t.Fatalf("empty window not all-zero: %+v", empty)
	}

	rec.Observe(0, 1.5, 2.5)
	one := rec.RecentStats()
	if one.Samples != 1 {
		t.Fatalf("Samples = %d, want 1", one.Samples)
	}
	if one.P50MS != 4 || one.P99MS != 4 {
		t.Fatalf("single sample quantiles: p50 %g p99 %g, want 4/4", one.P50MS, one.P99MS)
	}
	if one.QueueP50MS != 1.5 || one.ExecP99MS != 2.5 {
		t.Fatalf("component quantiles: %+v", one)
	}
	if one.FillRatio != 0 {
		t.Fatalf("no batches dispatched but FillRatio = %g", one.FillRatio)
	}

	rec.ObserveBatch(2, 4)
	rec.ObserveBatch(4, 4)
	if got := rec.RecentStats().FillRatio; got != 0.75 {
		t.Fatalf("recent fill = %g, want 0.75", got)
	}

	// Overall pools across levels
	rec.Observe(1, 0.5, 1.5)
	all := rec.Overall()
	if all.Count != 2 || all.Level != "all" {
		t.Fatalf("Overall: %+v", all)
	}
	if all.MeanMS != 3 { // (4 + 2) / 2
		t.Fatalf("Overall mean = %g, want 3", all.MeanMS)
	}

	// counters
	done, tokens := rec.Counters()
	if done != 2 || tokens != 0 {
		t.Fatalf("Counters = %d/%d, want 2/0", done, tokens)
	}
	rec.ObserveTokens(7)
	if _, tokens = rec.Counters(); tokens != 7 {
		t.Fatalf("tokens = %d, want 7", tokens)
	}
}
