package cluster_test

import (
	"errors"
	"testing"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/serve"
)

// nodeInState builds a fresh node and walks it into the named state.
func nodeInState(t *testing.T, st cluster.NodeState) *cluster.Node {
	t.Helper()
	n := cluster.NewNode(0, newLMServer(t, serve.Config{}))
	switch st {
	case cluster.Cold:
	case cluster.Active:
		n.Start()
	case cluster.Draining:
		n.Start()
		n.StartDrain()
	case cluster.Drained:
		n.Start()
		n.StartDrain()
		n.AwaitDrained()
	case cluster.Down:
		n.Start()
		n.Crash()
	}
	if n.State() != st {
		t.Fatalf("setup: wanted %v, node is %v", st, n.State())
	}
	return n
}

// TestNodeTransitionMatrix pins every lifecycle operation against every
// starting state: the operation reports whether it transitioned, and
// the node lands in the expected state either way — no operation can
// wedge, resurrect a Down node, or double-kill.
func TestNodeTransitionMatrix(t *testing.T) {
	type op struct {
		name  string
		apply func(*cluster.Node) bool
	}
	ops := []op{
		{"Start", (*cluster.Node).Start},
		{"StartDrain", (*cluster.Node).StartDrain},
		{"AwaitDrained", (*cluster.Node).AwaitDrained},
		{"Restore", (*cluster.Node).Restore},
		{"Crash", (*cluster.Node).Crash},
		{"Stop", (*cluster.Node).Stop},
	}
	states := []cluster.NodeState{
		cluster.Cold, cluster.Active, cluster.Draining, cluster.Drained, cluster.Down,
	}
	// want[state][op] = {transitioned, resulting state}
	type result struct {
		ok   bool
		next cluster.NodeState
	}
	want := map[cluster.NodeState]map[string]result{
		cluster.Cold: {
			"Start":        {true, cluster.Active},
			"StartDrain":   {false, cluster.Cold},
			"AwaitDrained": {false, cluster.Cold},
			"Restore":      {false, cluster.Cold},
			"Crash":        {true, cluster.Down},
			"Stop":         {true, cluster.Down},
		},
		cluster.Active: {
			"Start":        {false, cluster.Active},
			"StartDrain":   {true, cluster.Draining},
			"AwaitDrained": {false, cluster.Active},
			"Restore":      {false, cluster.Active},
			"Crash":        {true, cluster.Down},
			"Stop":         {true, cluster.Down},
		},
		cluster.Draining: {
			"Start":        {false, cluster.Draining},
			"StartDrain":   {false, cluster.Draining},
			"AwaitDrained": {true, cluster.Drained},
			"Restore":      {true, cluster.Active},
			"Crash":        {true, cluster.Down},
			"Stop":         {true, cluster.Down},
		},
		cluster.Drained: {
			"Start":        {false, cluster.Drained},
			"StartDrain":   {false, cluster.Drained},
			"AwaitDrained": {true, cluster.Drained}, // idempotent
			"Restore":      {true, cluster.Active},
			"Crash":        {true, cluster.Down},
			"Stop":         {true, cluster.Down},
		},
		cluster.Down: {
			"Start":        {false, cluster.Down},
			"StartDrain":   {false, cluster.Down},
			"AwaitDrained": {false, cluster.Down},
			"Restore":      {false, cluster.Down},
			"Crash":        {false, cluster.Down},
			"Stop":         {false, cluster.Down},
		},
	}
	for _, st := range states {
		for _, o := range ops {
			n := nodeInState(t, st)
			w := want[st][o.name]
			ok := o.apply(n)
			if ok != w.ok || n.State() != w.next {
				t.Errorf("%v + %s: got (%v, %v), want (%v, %v)",
					st, o.name, ok, n.State(), w.ok, w.next)
			}
		}
	}
}

// TestRouterRejectsBadBudget: a budget above the nodes' MaxGenTokens is
// the request's fault, not the fleet's. The router returns
// serve.ErrBadBudget synchronously, without a retry even when retries
// are configured, and every node stays in rotation and keeps serving.
func TestRouterRejectsBadBudget(t *testing.T) {
	r := newCluster(t, 2, serve.Config{QueueCap: 8},
		cluster.Config{Seed: 4, MaxRetries: 50})
	prompt := []int{1, 2, 3}
	for _, budget := range []int{33, 1 << 40} {
		if _, err := r.SubmitGen(7, prompt, budget, -1); !errors.Is(err, serve.ErrBadBudget) {
			t.Fatalf("budget %d: %v, want ErrBadBudget", budget, err)
		}
	}
	if st := r.Stats(); st.Retries != 0 || st.Dispatches != 0 {
		t.Fatalf("rejected budgets cost %d retries and %d dispatches, want 0 and 0", st.Retries, st.Dispatches)
	}
	for _, nd := range r.Nodes() {
		if !nd.Ready() || nd.Server().Stopped() {
			t.Fatalf("node %d left rotation after a rejected budget", nd.ID)
		}
	}
	ch, err := r.SubmitGen(7, prompt, 32, -1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil || len(resp.Tokens) != 32 {
		t.Fatalf("budget at the cap after the rejections: %d tokens, err %v", len(resp.Tokens), resp.Err)
	}
}

// TestRouterRetriesAbsorbOverload: with backoff retries enabled, a
// burst larger than the only node's queue completes in full — admission
// failures turn into seeded-backoff retries instead of drops, and every
// retry is recorded both in the counters and the decision trace.
func TestRouterRetriesAbsorbOverload(t *testing.T) {
	r := newCluster(t, 1,
		serve.Config{MaxBatch: 1, QueueCap: 1, StepFloor: 2 * time.Millisecond},
		cluster.Config{Seed: 9, MaxRetries: 1000},
	)
	const reqs = 6
	prompt := []int{1, 2, 3}
	chans := make([]<-chan serve.GenResponse, reqs)
	for i := 0; i < reqs; i++ {
		ch, err := r.SubmitGen(uint64(i), prompt, 2, -1)
		if err != nil {
			t.Fatalf("request %d rejected synchronously: %v", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d failed: %v", i, resp.Err)
		}
		if len(resp.Tokens) != 2 {
			t.Fatalf("request %d: %d tokens, want 2", i, len(resp.Tokens))
		}
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Fatal("overload burst produced no retries")
	}
	if st.Drops != 0 {
		t.Fatalf("%d drops despite retries", st.Drops)
	}
	var traced int
	for _, d := range r.Trace().Decisions {
		if d.Kind == cluster.DecisionRetry {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no retry decisions in the trace")
	}
}

// occupyNode fills a MaxBatch-1/QueueCap-1 node: one generation
// decoding, one queued. It waits for the worker to dequeue the first
// submission before enqueueing the second, so both land deterministically.
func occupyNode(t *testing.T, r *cluster.Router, budget int) (a, b <-chan serve.GenResponse) {
	t.Helper()
	a, err := r.SubmitGen(1, []int{1, 2}, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	nd := r.Nodes()[0]
	for nd.Server().Status().QueueDepth > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	b, err = r.SubmitGen(2, []int{2, 3}, budget, -1)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestBreakerTripAndRecover drives the full circuit: consecutive
// admission failures open the node's breaker (dispatch then fails fast
// with ErrNoReadyNodes), the cooldown admits a half-open trial, and the
// trial's success closes the circuit again — with every transition in
// the trace's breaker log.
func TestBreakerTripAndRecover(t *testing.T) {
	const cooldown = 10 * time.Millisecond
	r := newCluster(t, 1,
		serve.Config{MaxBatch: 1, QueueCap: 1, StepFloor: 10 * time.Millisecond},
		cluster.Config{
			Seed:    9,
			Breaker: cluster.BreakerConfig{Enabled: true, Threshold: 2, Cooldown: cooldown},
		},
	)
	if st := r.NodeBreakerState(0); st != cluster.BreakerClosed {
		t.Fatalf("initial breaker %v, want closed", st)
	}
	a, b := occupyNode(t, r, 3)
	// two queue-full admissions trip the Threshold-2 breaker
	for i := 0; i < 2; i++ {
		if _, err := r.SubmitGen(uint64(10+i), []int{1}, 2, -1); !errors.Is(err, serve.ErrQueueFull) {
			t.Fatalf("overload %d: %v, want ErrQueueFull", i, err)
		}
	}
	if st := r.NodeBreakerState(0); st != cluster.BreakerOpen {
		t.Fatalf("breaker after %d failures: %v, want open", 2, st)
	}
	// while open, the node is out of every ready set
	if _, err := r.SubmitGen(20, []int{1}, 2, -1); !errors.Is(err, cluster.ErrNoReadyNodes) {
		t.Fatalf("open breaker: %v, want ErrNoReadyNodes", err)
	}
	if st := r.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips %d, want 1", st.BreakerTrips)
	}
	// drain the occupiers, wait out the cooldown, and recover via the
	// half-open trial
	if (<-a).Err != nil || (<-b).Err != nil {
		t.Fatal("occupying requests failed")
	}
	time.Sleep(cooldown + time.Millisecond)
	ch, err := r.SubmitGen(30, []int{1, 2}, 2, -1)
	if err != nil {
		t.Fatalf("half-open trial rejected: %v", err)
	}
	if resp := <-ch; resp.Err != nil {
		t.Fatalf("half-open trial failed: %v", resp.Err)
	}
	if st := r.NodeBreakerState(0); st != cluster.BreakerClosed {
		t.Fatalf("breaker after successful trial: %v, want closed", st)
	}
	// the trace carries the full transition history, in order
	var seq []string
	for _, ev := range r.Trace().Breaker {
		if ev.Node != 0 {
			t.Fatalf("breaker event for unexpected node %d", ev.Node)
		}
		seq = append(seq, ev.To)
	}
	want := []string{"open", "half-open", "closed"}
	if len(seq) != len(want) {
		t.Fatalf("breaker log %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("breaker log %v, want %v", seq, want)
		}
	}
}
