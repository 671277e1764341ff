package chaos_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"rt3/internal/chaos"
	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

var (
	levelNames = []string{"l6", "l4", "l3"}
	sparsities = []float64{0.3, 0.5, 0.7}
	// chaosCfg sizes the deployment for the mixed workload: the GLUE
	// vocabulary (48 tokens, sequences up to 16) plus a decoder for
	// generation sessions.
	chaosCfg = transformer.Config{
		Vocab: 48, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 1, SeqLen: 16,
	}
)

// newChaosServer deploys one generation-mode server with shared seed 7
// weights (identical across nodes — the failover precondition) and a
// battery, so every fault kind has a target.
func newChaosServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	d, err := serve.Deploy(serve.DeploySpec{Seed: 7, Levels: levelNames, Sparsities: sparsities, PSize: 4, Patterns: 3},
		func(rng *rand.Rand) *transformer.LMModel { return transformer.NewLMModel(chaosCfg, rng) }, 1, serve.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Engine.Close)
	cfg.Generate = true
	return serve.New(d.Engine, cfg)
}

// newChaosCluster builds and starts an n-node router, with batteries on
// every node.
func newChaosCluster(t testing.TB, n int) *cluster.Router {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(i, newChaosServer(t, serve.Config{
			MaxBatch: 8, QueueCap: 64, StepFloor: 200 * time.Microsecond, BatteryJ: 200,
		}))
	}
	r := cluster.New(nodes, cluster.Config{Seed: 11})
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

// TestNewScheduleDeterminism: the schedule is a pure function of its
// arguments, never targets the reference node, and classifies its
// level stability correctly.
func TestNewScheduleDeterminism(t *testing.T) {
	for _, profile := range chaos.Profiles() {
		a, err := chaos.NewSchedule(profile, 3, time.Second, 42)
		if err != nil {
			t.Fatalf("%s: %v", profile, err)
		}
		b, err := chaos.NewSchedule(profile, 3, time.Second, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same args, different schedules:\n%+v\n%+v", profile, a.Events, b.Events)
		}
		for _, ev := range a.Events {
			if ev.Node == 0 {
				t.Fatalf("%s: event targets the reference node: %+v", profile, ev)
			}
			if ev.At < 0 || ev.At >= time.Second {
				t.Fatalf("%s: event outside the window: %+v", profile, ev)
			}
		}
		for i := 1; i < len(a.Events); i++ {
			if a.Events[i].At < a.Events[i-1].At {
				t.Fatalf("%s: events not sorted: %+v", profile, a.Events)
			}
		}
	}
	if s, _ := chaos.NewSchedule("none", 3, time.Second, 1); len(s.Events) != 0 {
		t.Fatal("none profile has events")
	}
	if _, err := chaos.NewSchedule("bogus", 3, time.Second, 1); err == nil {
		t.Fatal("unknown profile should error")
	}
	if _, err := chaos.NewSchedule("crash", 1, time.Second, 1); err == nil {
		t.Fatal("single-node cluster should error")
	}
	if _, err := chaos.NewSchedule("crash", 3, 0, 1); err == nil {
		t.Fatal("zero duration should error")
	}
}

// TestStragglerFactor: the slowdown stretch comes from Table I's V/F
// span and must be a real slowdown.
func TestStragglerFactor(t *testing.T) {
	f := chaos.StragglerFactor()
	if f <= 1 {
		t.Fatalf("straggler factor %g, want > 1", f)
	}
	if f > 100 {
		t.Fatalf("straggler factor %g implausibly large", f)
	}
}

// TestTraceSpecs: both builtin traces parse, validate, and carry the
// version gate.
func TestTraceSpecs(t *testing.T) {
	names := chaos.BuiltinTraces()
	if len(names) < 2 {
		t.Fatalf("builtin traces %v, want at least diurnal and flashcrowd", names)
	}
	for _, name := range names {
		spec, err := chaos.LoadBuiltinTrace(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Fatalf("trace %q names itself %q", name, spec.Name)
		}
		if spec.Duration() <= 0 {
			t.Fatalf("trace %q has no duration", name)
		}
	}
	if _, err := chaos.LoadBuiltinTrace("nope"); err == nil {
		t.Fatal("unknown builtin trace should error")
	}
	if _, err := chaos.ParseTrace([]byte(`{"version":2,"name":"x","buckets":[{"duration_ms":1,"rps":1}]}`)); err == nil {
		t.Fatal("future version should be rejected")
	}
	if _, err := chaos.ParseTrace([]byte(`{"version":1,"name":"x","buckets":[]}`)); err == nil {
		t.Fatal("bucketless trace should be rejected")
	}
	if _, err := chaos.ParseTrace([]byte(`{"version":1,"name":"x","classify_fraction":0.5,"buckets":[{"duration_ms":1,"rps":1}]}`)); err == nil {
		t.Fatal("classifying trace without a glue task should be rejected")
	}
}

// runScenario executes one profile × trace combination on a fresh
// 3-node cluster at a compressed time scale.
func runScenario(t *testing.T, profile, trace string, seed int64) *chaos.ScenarioReport {
	t.Helper()
	r := newChaosCluster(t, 3)
	spec, err := chaos.LoadBuiltinTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.3
	sched, err := chaos.NewSchedule(profile, 3, time.Duration(float64(spec.Duration())*scale), seed)
	if err != nil {
		t.Fatal(err)
	}
	load := spec.Spec(seed, scale)
	load.Verify = r.Nodes()[0].Server()
	rep, err := chaos.Scenario{Router: r, Schedule: sched, Load: load}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkFloors asserts the chaos invariants every scenario must hold:
// no response the cluster accepted may be lost, every completed
// response dense-verifies, and the decision trace replays bit-
// identically.
func checkFloors(t *testing.T, rep *chaos.ScenarioReport) {
	t.Helper()
	if rep.Workload.Failed != 0 {
		t.Fatalf("%d failed responses\n%s", rep.Workload.Failed, rep)
	}
	if rep.Workload.Verified != rep.Workload.Completed() {
		t.Fatalf("verified %d of %d completed", rep.Workload.Verified, rep.Workload.Completed())
	}
	if rep.Workload.Mismatches != 0 {
		t.Fatalf("%d dense mismatches", rep.Workload.Mismatches)
	}
	if rep.ReplayErr != "" {
		t.Fatalf("decision replay: %s", rep.ReplayErr)
	}
	if rep.Injector.ChaffFailed != 0 {
		t.Fatalf("%d chaff failures", rep.Injector.ChaffFailed)
	}
	for _, f := range rep.Injector.Fired {
		if len(f.Outcome) >= 10 && f.Outcome[:10] == "UNEXPECTED" {
			t.Fatalf("fault %d: %s", f.Seq, f.Outcome)
		}
	}
}

// TestScenarioCrashDiurnal: a node dies mid-run under diurnal load;
// pinned sessions fail over, nothing is lost, everything verifies.
func TestScenarioCrashDiurnal(t *testing.T) {
	rep := runScenario(t, "crash", "diurnal", 5)
	checkFloors(t, rep)
	if rep.Injector.Fired[0].Outcome != "applied" {
		t.Fatalf("crash not applied: %+v", rep.Injector.Fired[0])
	}
	if rep.Workload.Completed() == 0 {
		t.Fatal("no completed responses")
	}
}

// TestCrashWaitsForWork: a crash due at offset 0 against a fleet with
// no load does not fire while its victim holds nothing; cancel records
// it as cancelled, and the victim stays in rotation.
func TestCrashWaitsForWork(t *testing.T) {
	r := newChaosCluster(t, 2)
	inj := chaos.NewInjector(r, &chaos.Schedule{Profile: "crash", Events: []chaos.Event{{Kind: chaos.FaultCrash, Node: 1}}})
	cancel, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		inj.Run(cancel)
	}()
	time.Sleep(50 * time.Millisecond)
	if st := r.Nodes()[1].State(); st != cluster.Active {
		t.Fatalf("node 1 is %s before any work reached it, want active", st)
	}
	close(cancel)
	<-done
	fired := inj.Trace().Fired
	if len(fired) != 1 || fired[0].Outcome != "cancelled before firing" {
		t.Fatalf("fired %+v, want the crash cancelled before firing", fired)
	}
	if st := r.Nodes()[1].State(); st != cluster.Active {
		t.Fatalf("node 1 is %s after the cancelled crash, want active", st)
	}
}

// TestScenarioReportCountsCancelledApart: a scenario whose only event
// is a crash that never becomes due (a 1 req/s load offers nothing in
// its 50 ms, so no work reaches the victim) reports 0 faults fired and
// 1 cancelled, as rt3_chaos_events_total counts it.
func TestScenarioReportCountsCancelledApart(t *testing.T) {
	r := newChaosCluster(t, 2)
	reg := obs.NewRegistry()
	rep, err := chaos.Scenario{
		Router:   r,
		Schedule: &chaos.Schedule{Profile: "crash", Events: []chaos.Event{{Kind: chaos.FaultCrash, Node: 1}}},
		Load: loadgen.Spec{Duration: 50 * time.Millisecond, Rate: loadgen.Ramp(1, 1, time.Second),
			Sessions: 1, PromptMin: 1, PromptMax: 1, OutMin: 1, OutMax: 1, Vocab: 2},
		Metrics: reg,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fired := rep.Injector.Fired; len(fired) != 1 || fired[0].Outcome != "cancelled before firing" {
		t.Fatalf("fired %+v, want the crash cancelled before firing", fired)
	}
	if out := rep.String(); !strings.Contains(out, "profile crash: 0 faults fired, 1 cancelled\n") {
		t.Fatalf("report header does not count the crash as cancelled:\n%s", out)
	}
	if got := reg.Snapshot()["rt3_chaos_events_total"]; got != 0 {
		t.Fatalf("rt3_chaos_events_total = %v, want 0", got)
	}
}

// TestScenarioAllFlashcrowd: every fault class at once under the
// flash-crowd trace — the full gauntlet, floors still hold.
func TestScenarioAllFlashcrowd(t *testing.T) {
	rep := runScenario(t, "all", "flashcrowd", 6)
	checkFloors(t, rep)
	if len(rep.Injector.Fired) != 9 {
		t.Fatalf("fired %d events, schedule has 9", len(rep.Injector.Fired))
	}
}

// TestScenarioDeterministicReplay: two fresh clusters, same seed, same
// level-stable schedule — identical fault schedules and identical
// response sets (order-independent hash), with zero shed so the
// comparison is sound.
func TestScenarioDeterministicReplay(t *testing.T) {
	a := runScenario(t, "crash", "diurnal", 9)
	checkFloors(t, a)
	b := runScenario(t, "crash", "diurnal", 9)
	checkFloors(t, b)
	if a.Workload.Shed != 0 || b.Workload.Shed != 0 {
		t.Fatalf("shed %d / %d; hash comparison needs zero shed", a.Workload.Shed, b.Workload.Shed)
	}
	if a.Workload.Offered != b.Workload.Offered {
		t.Fatalf("offered %d vs %d: arrival sequence not deterministic", a.Workload.Offered, b.Workload.Offered)
	}
	if a.Workload.ResponseHash != b.Workload.ResponseHash {
		t.Fatalf("response hashes differ: %x vs %x", a.Workload.ResponseHash, b.Workload.ResponseHash)
	}
}
