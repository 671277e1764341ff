package cluster_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

var (
	levelNames = []string{"l6", "l4", "l3"}
	sparsities = []float64{0.3, 0.5, 0.7}
	lmCfg      = transformer.Config{
		Vocab: 24, Dim: 16, Heads: 2, FFHidden: 32, EncLayers: 2, DecLayers: 2, SeqLen: 12,
	}
)

// newLMServer deploys one generation-mode server with the shared test
// seed, so every node in a cluster carries identical weights and
// pattern sets — the precondition for cross-node dense verification and
// bit-identical failover.
func newLMServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	d, err := serve.Deploy(serve.DeploySpec{Seed: 7, Levels: levelNames, Sparsities: sparsities, PSize: 4, Patterns: 3},
		func(rng *rand.Rand) *transformer.LMModel { return transformer.NewLMModel(lmCfg, rng) }, 1, serve.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Engine.Close)
	cfg.Generate = true
	return serve.New(d.Engine, cfg)
}

// newCluster builds and starts an n-node router; every node is an
// identical single-replica deployment.
func newCluster(t testing.TB, n int, srvCfg serve.Config, cfg cluster.Config) *cluster.Router {
	t.Helper()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(i, newLMServer(t, srvCfg))
	}
	r := cluster.New(nodes, cfg)
	r.Start()
	t.Cleanup(r.Stop)
	return r
}

func TestNodeLifecycle(t *testing.T) {
	srv := newLMServer(t, serve.Config{})
	n := cluster.NewNode(3, srv)
	if n.State() != cluster.Cold || n.Ready() {
		t.Fatalf("new node: state %v ready %v, want cold and not ready", n.State(), n.Ready())
	}
	n.Start()
	if n.State() != cluster.Active || !n.Ready() {
		t.Fatalf("started node: state %v ready %v", n.State(), n.Ready())
	}
	if !n.StartDrain() {
		t.Fatal("StartDrain from active failed")
	}
	if n.StartDrain() {
		t.Fatal("StartDrain from draining should fail")
	}
	if n.Ready() {
		t.Fatal("draining node is ready")
	}
	n.AwaitDrained()
	if n.State() != cluster.Drained {
		t.Fatalf("after AwaitDrained: %v", n.State())
	}
	n.Restore()
	if n.State() != cluster.Active || !n.Ready() {
		t.Fatalf("restored node: state %v ready %v", n.State(), n.Ready())
	}
	n.Crash()
	if n.State() != cluster.Down || n.Ready() || n.Probe() == nil {
		t.Fatalf("crashed node: state %v ready %v probe %v", n.State(), n.Ready(), n.Probe())
	}
}

func TestPolicyDeterminismAndShape(t *testing.T) {
	ready := []int{0, 1, 2, 3}
	loads := []float64{5, 1, 3, 9}

	ll := cluster.LeastLoadedPolicy{}
	if got := ll.Pick(42, ready, loads, nil); got != 1 {
		t.Fatalf("least-loaded picked %d, want 1", got)
	}

	h := cluster.HashPolicy{}
	first := h.Pick(42, ready, loads, nil)
	for i := 0; i < 10; i++ {
		if got := h.Pick(42, ready, loads, nil); got != first {
			t.Fatalf("hash pick unstable: %d then %d", first, got)
		}
	}
	// rendezvous property: removing one node only remaps the keys that
	// lived on it
	for key := uint64(0); key < 200; key++ {
		full := h.Pick(key, ready, loads, nil)
		reduced := []int{0, 1, 3} // node 2 leaves
		got := h.Pick(key, reduced, []float64{5, 1, 9}, nil)
		if full != 2 && got != full {
			t.Fatalf("key %d moved from %d to %d though node 2 leaving should not affect it", key, full, got)
		}
	}

	p2c := cluster.P2CPolicy{}
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		a := p2c.Pick(uint64(i), ready, loads, rngA)
		b := p2c.Pick(uint64(i), ready, loads, rngB)
		if a != b {
			t.Fatalf("p2c diverged at %d: %d vs %d", i, a, b)
		}
	}
	if got := p2c.Pick(1, []int{5}, []float64{3}, rand.New(rand.NewSource(1))); got != 5 {
		t.Fatalf("p2c with one ready node picked %d, want 5", got)
	}
}

func TestRouterSessionAffinity(t *testing.T) {
	r := newCluster(t, 3, serve.Config{QueueCap: 256}, cluster.Config{Seed: 1})
	prompt := []int{1, 2, 3, 4}
	var home int
	for i := 0; i < 8; i++ {
		ch, err := r.SubmitGen(99, prompt, 6, -1)
		if err != nil {
			t.Fatal(err)
		}
		resp := <-ch
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		var node int
		for _, nd := range r.Nodes() {
			if nd.Dispatches() > 0 {
				node = nd.ID
			}
		}
		if i == 0 {
			home = node
		}
	}
	st := r.Stats()
	if st.SessionPins != 1 || st.AffinityHits != 7 || st.AffinityMisses != 0 {
		t.Fatalf("affinity counters: pins %d hits %d misses %d, want 1/7/0", st.SessionPins, st.AffinityHits, st.AffinityMisses)
	}
	if got := r.Nodes()[home].Dispatches(); got != 8 {
		t.Fatalf("home node %d served %d dispatches, want 8", home, got)
	}
	if rate := st.AffinityHitRate(); rate != 1 {
		t.Fatalf("hit rate %f, want 1", rate)
	}
}

func TestRouterSpreadsSessions(t *testing.T) {
	r := newCluster(t, 3, serve.Config{QueueCap: 256}, cluster.Config{Seed: 1})
	for key := uint64(0); key < 24; key++ {
		ch, err := r.SubmitGen(key, []int{int(key % 12), 5, 7}, 4, -1)
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	for _, nd := range r.Nodes() {
		if nd.Dispatches() == 0 {
			t.Fatalf("node %d received no traffic across 24 sessions", nd.ID)
		}
	}
}

func TestDrainRestoreRepins(t *testing.T) {
	r := newCluster(t, 2, serve.Config{QueueCap: 256}, cluster.Config{Seed: 1})
	prompt := []int{3, 1, 4}
	ch, err := r.SubmitGen(7, prompt, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	var home int
	for _, nd := range r.Nodes() {
		if nd.Dispatches() > 0 {
			home = nd.ID
		}
	}
	if _, err := r.Drain(home); err != nil {
		t.Fatal(err)
	}
	ch, err = r.SubmitGen(7, prompt, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	other := 1 - home
	if got := r.Nodes()[other].Dispatches(); got != 1 {
		t.Fatalf("drained home: other node served %d, want 1", got)
	}
	st := r.Stats()
	if st.AffinityMisses != 1 {
		t.Fatalf("affinity misses %d, want 1 (forced re-pin)", st.AffinityMisses)
	}
	if !r.Nodes()[home].Restore() {
		t.Fatal("drained node refused Restore")
	}
	if !r.Nodes()[home].Ready() {
		t.Fatal("restored node not ready")
	}
}

// TestFailoverBitIdentical is the failover correctness check: a node is
// killed mid-generation and the stream must complete on the survivor
// with output bit-identical to the dense reference (and hence to the
// uninterrupted run), with no response-forwarding goroutine leaked.
func TestFailoverBitIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	const budget = 48
	srvCfg := serve.Config{QueueCap: 64, MaxGenTokens: budget, StepFloor: 2 * time.Millisecond}
	r := newCluster(t, 2, srvCfg, cluster.Config{Seed: 3})
	prompt := []int{2, 7, 1, 8, 2, 8}

	ch, err := r.SubmitGen(11, prompt, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	// let the stream commit a partial prefix, then kill its node
	time.Sleep(20 * time.Millisecond)
	var home int
	for _, nd := range r.Nodes() {
		if nd.Dispatches() > 0 {
			home = nd.ID
		}
	}
	if err := r.Crash(home); err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if resp.Err != nil {
		t.Fatalf("failover did not recover: %v", resp.Err)
	}
	if len(resp.Tokens) != budget {
		t.Fatalf("recovered stream has %d tokens, want %d", len(resp.Tokens), budget)
	}
	st := r.Stats()
	if st.Failovers < 1 {
		t.Fatalf("failovers %d, want >= 1 (crash at 20ms into a %dx2ms generation)", st.Failovers, budget)
	}

	survivor := 1 - home
	ref, err := r.Nodes()[survivor].Server().DenseGenReference(resp.Level, prompt, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(resp.Tokens) {
		t.Fatalf("reference %d tokens vs served %d", len(ref), len(resp.Tokens))
	}
	for i := range ref {
		if ref[i] != resp.Tokens[i] {
			t.Fatalf("token %d: served %d, dense reference %d — failover replay diverged", i, resp.Tokens[i], ref[i])
		}
	}

	// no leaked forwarding goroutines once the cluster stops
	r.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after stop", before, after)
	}
}

// TestStatsSub: the delta covers every counter — a field added to Stats
// and forgotten in Sub fails here.
func TestStatsSub(t *testing.T) {
	var now, prev cluster.Stats
	nv, pv := reflect.ValueOf(&now).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < nv.NumField(); i++ {
		nv.Field(i).SetInt(int64(100 + 3*i))
		pv.Field(i).SetInt(int64(2 * i))
	}
	dv := reflect.ValueOf(now.Sub(prev))
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Int(), int64(100+i); got != want {
			t.Errorf("%s: delta %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
}

// sessionLoad is a flat session-tagged generation profile for the load
// driver: prompts of 4..12 tokens, budgets of 4..8.
func sessionLoad(d time.Duration, rps float64, sessions int, seed int64) loadgen.Spec {
	return loadgen.Spec{
		Duration: d, Rate: loadgen.Ramp(rps, rps, d), Seed: seed,
		Sessions: sessions, PromptMin: 4, PromptMax: 12, OutMin: 4, OutMax: 8, Vocab: lmCfg.Vocab,
	}
}

// TestRolloutZeroDowntime drives load through a rollout sweep: every
// response must complete (zero failed) and dense-verify at the level it
// was served on, while every node ends at the target level.
func TestRolloutZeroDowntime(t *testing.T) {
	r := newCluster(t, 3, serve.Config{QueueCap: 4096, StepFloor: 200 * time.Microsecond},
		cluster.Config{Seed: 5})
	rolloutErr := make(chan error, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		rolloutErr <- r.RolloutSwitch(2)
	}()
	spec := sessionLoad(600*time.Millisecond, 150, 24, 5)
	spec.Verify = r.Nodes()[0].Server()
	rep, err := loadgen.Run(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if err := <-rolloutErr; err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("rollout run failed %d responses, want 0", rep.Failed)
	}
	if rep.Verified == 0 || rep.Mismatches != 0 {
		t.Fatalf("verified %d mismatches %d, want >0 verified and 0 mismatches", rep.Verified, rep.Mismatches)
	}
	if st.Rollouts != 1 {
		t.Fatalf("rollouts %d, want 1", st.Rollouts)
	}
	for _, nd := range r.Nodes() {
		if lvl := nd.Server().Engine().Level(); lvl != 2 {
			t.Fatalf("node %d at level %d after rollout, want 2", nd.ID, lvl)
		}
		if !nd.Ready() {
			t.Fatalf("node %d not back in rotation after rollout", nd.ID)
		}
	}
	if st.AffinityHitRate() < 0.95 {
		t.Fatalf("affinity hit rate %.3f under rollout, want >= 0.95", st.AffinityHitRate())
	}
}

// TestTraceReplay pins router auditability: for every policy, the
// recorded decision trace replays identically from its seed, and a
// tampered trace is detected.
func TestTraceReplay(t *testing.T) {
	for _, polName := range []string{"hash", "least-loaded", "p2c"} {
		pol, err := cluster.NewPolicy(polName)
		if err != nil {
			t.Fatal(err)
		}
		r := newCluster(t, 3, serve.Config{QueueCap: 1024},
			cluster.Config{Policy: pol, Seed: 17})
		if _, err := loadgen.Run(r, sessionLoad(150*time.Millisecond, 200, 16, 17)); err != nil {
			t.Fatal(err)
		}
		tr := r.Trace()
		if len(tr.Decisions) == 0 {
			t.Fatalf("%s: empty decision trace", polName)
		}
		n, err := cluster.Replay(tr)
		if err != nil {
			t.Fatalf("%s: replay: %v", polName, err)
		}
		if n != len(tr.Decisions) {
			t.Fatalf("%s: replayed %d of %d decisions", polName, n, len(tr.Decisions))
		}
		tampered := tr
		tampered.Decisions = append([]cluster.Decision(nil), tr.Decisions...)
		d := tampered.Decisions[0]
		d.Node = d.Ready[(indexOf(d.Ready, d.Node)+1)%len(d.Ready)]
		if d.Node == tr.Decisions[0].Node {
			continue // single-node ready set: nothing to tamper
		}
		tampered.Decisions[0] = d
		if _, err := cluster.Replay(tampered); err == nil {
			t.Fatalf("%s: tampered trace replayed without divergence", polName)
		}
		r.Stop()
	}
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// TestClusterMetricsExposition checks the rt3_cluster_* families render
// valid Prometheus text with per-node labels.
func TestClusterMetricsExposition(t *testing.T) {
	r := newCluster(t, 2, serve.Config{QueueCap: 64}, cluster.Config{Seed: 1})
	ch, err := r.SubmitGen(1, []int{1, 2, 3}, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	<-ch
	snap := r.Metrics().Snapshot()
	for _, name := range []string{
		"rt3_cluster_nodes",
		"rt3_cluster_ready_nodes",
		"rt3_cluster_affinity_hits_total",
		"rt3_cluster_session_pins_total",
		`rt3_cluster_node_state{node="0"}`,
		`rt3_cluster_dispatches_total{node="1"}`,
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %s missing from snapshot: %v", name, snap)
		}
	}
	if snap["rt3_cluster_nodes"] != 2 || snap["rt3_cluster_ready_nodes"] != 2 {
		t.Fatalf("node gauges: %v / %v", snap["rt3_cluster_nodes"], snap["rt3_cluster_ready_nodes"])
	}
	total := snap[`rt3_cluster_dispatches_total{node="0"}`] + snap[`rt3_cluster_dispatches_total{node="1"}`]
	if total != 1 {
		t.Fatalf("dispatches across nodes %v, want 1", total)
	}
}
