package serve_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/loadgen"
	"rt3/internal/metrics"
	"rt3/internal/obs"
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
// seed reproduces every decision exactly.
func TestAutotunerTraceReplay(t *testing.T) {
	levels := autotuneLevels(t)
	at, err := serve.NewAutotuner(levels, serve.AutotuneConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), serve.CyclesPerInference)

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

	replayed, err := serve.ReplayTrace(levels, tr)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i := range replayed {
		if !replayed[i].SameAs(tr.Decisions[i]) {
			t.Fatalf("decision %d diverged: live %+v vs replay %+v", i, tr.Decisions[i], replayed[i])
		}
	}
}

// TestAutotunerTraceCapTruncationNotReplayable: once the trace cap
// evicts decisions the learning history is incomplete and replay must
// refuse.
func TestAutotunerTraceCapTruncationNotReplayable(t *testing.T) {
	levels := autotuneLevels(t)
	at, err := serve.NewAutotuner(levels, serve.AutotuneConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serve.SetAutotuneTraceCap(at, 16)
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), serve.CyclesPerInference)
	for i := 0; i < 40; i++ {
		at.Step(simTelemetry(costs, 0, 1, 15))
	}
	tr := at.Trace()
	if tr.Dropped != 24 || len(tr.Decisions) != 16 {
		t.Fatalf("Dropped=%d len=%d, want 24/16", tr.Dropped, len(tr.Decisions))
	}
	if _, err := serve.ReplayTrace(levels, tr); err == nil {
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
	const ticks, targetMS = 500, 15.0
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), serve.CyclesPerInference)

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

	at, err := serve.NewAutotuner(levels, serve.AutotuneConfig{Seed: 2})
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

// TestGovernorModeDecisions drives the governor mode through Step: the
// battery picks the level, a queue of 64 or more buys one level back,
// never past the fastest, and the reward is credited from the second
// tick on without exploration or an epsilon.
func TestGovernorModeDecisions(t *testing.T) {
	levels := []dvfs.Level{dvfs.OdroidXU3Levels[5], dvfs.OdroidXU3Levels[3], dvfs.OdroidXU3Levels[2]}
	at, err := serve.NewAutotuner(levels, serve.AutotuneConfig{Seed: 1, Governor: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		battery float64
		queue   int
		want    int
	}{
		{0.9, 0, 0},
		{0.5, 0, 1},
		{0.1, 0, 2},
		{0.1, 63, 2}, // one short of the high-water mark
		{0.1, 64, 1}, // at it: one level faster
		{0.5, 64, 0},
		{0.9, 64, 0}, // already the fastest: no escalation
		{0.9, 4096, 0},
	} {
		dec := at.Step(serve.Telemetry{
			Window:          serve.WindowStats{Samples: 8, P99MS: 5},
			BatteryFraction: c.battery,
			QueueDepth:      c.queue,
			TargetMS:        15,
		})
		if dec.Level != c.want {
			t.Fatalf("battery %.1f queue %d: level %d, want %d", c.battery, c.queue, dec.Level, c.want)
		}
		if dec.Explore || dec.Epsilon != 0 {
			t.Fatalf("tick %d explored (%v) at epsilon %g", dec.Tick, dec.Explore, dec.Epsilon)
		}
		if (i > 0) != (dec.Reward != 0) {
			t.Fatalf("tick %d: reward %g (credited from the second tick on)", dec.Tick, dec.Reward)
		}
	}
}

// TestGovernorTraceReplay: a governor trace records its mode and replays
// through ReplayTrace, and the same trace with one level flipped fails.
func TestGovernorTraceReplay(t *testing.T) {
	levels := autotuneLevels(t)
	at, err := serve.NewAutotuner(levels, serve.AutotuneConfig{Seed: 9, Governor: true})
	if err != nil {
		t.Fatal(err)
	}
	costs := hwsim.LevelCosts(levels, dvfs.DefaultPowerModel(), serve.CyclesPerInference)
	battery, level := 1.0, 0
	for i := 0; i < 200; i++ {
		tel := simTelemetry(costs, level, battery, 15)
		tel.QueueDepth = 16 * (i % 8) // crosses the high-water mark every eighth tick
		level = at.Step(tel).Level
		battery = math.Max(0, battery-costs[level].RelEnergy/100)
	}
	tr := at.Trace()
	if !tr.Governor {
		t.Fatal("governor trace does not record its mode")
	}
	seen := map[int]bool{}
	for _, d := range tr.Decisions {
		seen[d.Level] = true
	}
	if len(seen) != len(levels) {
		t.Fatalf("the run visited levels %v, want all %d", seen, len(levels))
	}
	if _, err := serve.ReplayTrace(levels, tr); err != nil {
		t.Fatalf("replay: %v", err)
	}

	tr.Decisions[57].Level = (tr.Decisions[57].Level + 1) % len(levels)
	if _, err := serve.ReplayTrace(levels, tr); err == nil {
		t.Fatal("a trace with a flipped level replayed")
	}
}

// TestStopEndsControlLoop: a started server runs its control loop (the
// governor follows a collapsed battery to the slowest level), and Stop
// ends it with the step loops, leaving no goroutine behind.
func TestStopEndsControlLoop(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	defer eng.Close()
	// build every level now, so nothing the switch starts outlives it
	for lvl := eng.NumLevels() - 1; lvl >= 0; lvl-- {
		if _, err := eng.SwitchTo(lvl); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	srv := serve.New(eng, serve.Config{BatteryJ: 1, Autotune: &serve.AutotuneConfig{Governor: true}})
	srv.Start()
	srv.CollapseBattery(0.1)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Status().Level != eng.NumLevels()-1 {
		if time.Now().After(deadline) {
			t.Fatal("the control loop never moved the level")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before start, %d after stop", before, after)
	}
}

// TestAutotuneServerLiveTrace drives a real server with the closed loop
// enabled under load and checks the contract end to end: decisions were
// made from live telemetry, applied switches drained cleanly (responses
// all verify against dense execution), and the recorded trace replays.
func TestAutotuneServerLiveTrace(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	defer eng.Close()
	srv := serve.New(eng, serve.Config{
		MaxBatch: 4, QueueCap: 1024,
		TargetMS: 20, BatteryJ: 0.05, Autotune: &serve.AutotuneConfig{Seed: 5},
	})
	serve.SetAutotuneEpsilon(srv, 0.9) // switch-happy: this test is about drains, not learning
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
	if _, err := serve.ReplayTrace(eng.Levels(), tr); err != nil {
		t.Fatalf("live trace replay: %v", err)
	}
}

// TestAutotuneGenerateMode: the closed loop drives switches at
// decode-step granularity while generations are in flight.
func TestAutotuneGenerateMode(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	defer eng.Close()
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 256,
		MaxGenTokens: 12, TargetMS: 20, BatteryJ: 0.05, Autotune: &serve.AutotuneConfig{Seed: 4},
	})
	serve.SetAutotuneEpsilon(srv, 0.9)
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
	reg := obs.NewRegistry()
	rec := serve.NewRecorderOn(reg, []string{"l6", "l3"})

	empty := rec.RecentStats()
	if empty.Samples != 0 {
		t.Fatalf("empty window Samples = %d", empty.Samples)
	}
	if empty.P99MS != 0 || empty.FillRatio != 0 {
		t.Fatalf("empty window not all-zero: %+v", empty)
	}

	rec.Observe(0, 1.5, 2.5)
	one := rec.RecentStats()
	if one.Samples != 1 {
		t.Fatalf("Samples = %d, want 1", one.Samples)
	}
	if one.P99MS != 4 {
		t.Fatalf("single sample p99 %g, want 4", one.P99MS)
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

	rec.ObserveTokens(7)
	snap := reg.Snapshot()
	if got := snap[`rt3_requests_total{level="l6"}`] + snap[`rt3_requests_total{level="l3"}`]; got != 2 {
		t.Fatalf("rt3_requests_total = %g, want 2", got)
	}
	if got := snap["rt3_gen_tokens_total"]; got != 7 {
		t.Fatalf("rt3_gen_tokens_total = %g, want 7", got)
	}
}

// TestRecorderLevelWindow: a level's count and mean cover every request
// while its quantiles cover its last 65,536, so a long-lived server's
// recorder stays bounded.
func TestRecorderLevelWindow(t *testing.T) {
	const capacity, extra = 1 << 16, 1000
	rec := serve.NewRecorderOn(obs.NewRegistry(), []string{"l6", "l3"})
	vals := make([]float64, capacity+extra)
	var sum float64
	for i := range vals {
		vals[i] = float64(i)
		sum += vals[i]
		rec.Observe(0, vals[i], 0)
	}
	snap := rec.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot has %d levels, want 1", len(snap))
	}
	l6 := snap[0]
	if l6.Count != capacity+extra {
		t.Fatalf("Count = %d, want %d", l6.Count, capacity+extra)
	}
	if want := sum / float64(len(vals)); l6.MeanMS != want {
		t.Fatalf("MeanMS = %g, want %g", l6.MeanMS, want)
	}
	if want := metrics.Quantile(vals[extra:], 0.5); l6.P50MS != want {
		t.Fatalf("P50MS = %g, want %g (the last %d samples)", l6.P50MS, want, capacity)
	}
	if want := metrics.Quantile(vals[extra:], 0.99); rec.Overall().P99MS != want {
		t.Fatalf("Overall P99MS = %g, want %g", rec.Overall().P99MS, want)
	}
}
