package cluster_test

import (
	"errors"
	"fmt"
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
// serve.ErrBadBudget synchronously, without a retry, and every node
// stays in rotation and keeps serving.
func TestRouterRejectsBadBudget(t *testing.T) {
	r := newCluster(t, 2, serve.Config{QueueCap: 8},
		cluster.Config{Seed: 4})
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

// TestRouterRetriesAbsorbOverload: a burst larger than the only node's
// queue completes in full — admission failures turn into seeded-backoff
// retries instead of drops, and every retry is recorded both in the
// counters and the decision trace.
func TestRouterRetriesAbsorbOverload(t *testing.T) {
	r := newCluster(t, 1,
		serve.Config{MaxBatch: 1, QueueCap: 1, StepFloor: 2 * time.Millisecond},
		cluster.Config{Seed: 9},
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

// TestFullQueueRetries: a router at the default config, in front of
// one node whose queue is full, hands SubmitGen's caller a channel
// instead of serve.ErrQueueFull, and the request completes once the
// queue drains, after at least one backoff retry.
func TestFullQueueRetries(t *testing.T) {
	r := newCluster(t, 1,
		serve.Config{MaxBatch: 1, QueueCap: 1, StepFloor: 2 * time.Millisecond},
		cluster.Config{Seed: 3},
	)
	a, b := occupyNode(t, r, 4)
	ch, err := r.SubmitGen(3, []int{3, 4}, 2, -1)
	if err != nil {
		t.Fatalf("full queue: SubmitGen returned %v, want a channel", err)
	}
	for i, c := range []<-chan serve.GenResponse{a, b, ch} {
		if resp := <-c; resp.Err != nil {
			t.Fatalf("request %d failed: %v", i, resp.Err)
		}
	}
	snap := r.Metrics().Snapshot()
	if n := snap["rt3_router_retries_total"]; n < 1 {
		t.Fatalf("rt3_router_retries_total %v, want >= 1", n)
	}
	if n := snap["rt3_cluster_dropped_total"]; n != 0 {
		t.Fatalf("rt3_cluster_dropped_total %v, want 0", n)
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

// TestBreakerTripAndRecover drives the full circuit at the default
// config. Three requests find the only node full and retry. Their
// failed admissions open the node's breaker after exactly
// BreakerThreshold of them; while it is open the node leaves every
// ready set, so no decision picks it and the retries of the cooldown
// find no node (and record no decision); the cooldown then admits a
// half-open trial; and once the node has room a trial's success closes
// the circuit again. The breaker log's Seq places every transition
// among the decisions.
func TestBreakerTripAndRecover(t *testing.T) {
	r := newCluster(t, 1,
		serve.Config{MaxBatch: 1, QueueCap: 1, StepFloor: 10 * time.Millisecond},
		cluster.Config{Seed: 9},
	)
	if st := r.NodeBreakerState(0); st != cluster.BreakerClosed {
		t.Fatalf("initial breaker %v, want closed", st)
	}
	// the node has room again once occupier a's six steps of at least
	// 10 ms are done; the overload's first failures, a few ms of
	// backoff apart, trip the breaker well before that
	a, b := occupyNode(t, r, 6)
	chans := map[string]<-chan serve.GenResponse{"occupier 1": a, "occupier 2": b}
	const overloadKey = 10
	for i := 0; i < 3; i++ {
		ch, err := r.SubmitGen(overloadKey+uint64(i), []int{1}, 2, -1)
		if err != nil {
			t.Fatalf("overload %d rejected synchronously: %v", i, err)
		}
		chans[fmt.Sprintf("overload %d", i)] = ch
	}
	for name, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("%s failed: %v", name, resp.Err)
		}
	}
	if st := r.NodeBreakerState(0); st != cluster.BreakerClosed {
		t.Fatalf("breaker after the overload completed: %v, want closed", st)
	}
	tr, st := r.Trace(), r.Stats()
	var retryDecisions int64
	for _, d := range tr.Decisions {
		if d.Kind == cluster.DecisionRetry {
			retryDecisions++
		}
	}
	if st.Retries <= retryDecisions {
		t.Fatalf("%d retries, %d retry decisions: no retry found the node out of the ready set", st.Retries, retryDecisions)
	}
	legal := map[[2]string]bool{{"closed", "open"}: true, {"open", "half-open"}: true, {"half-open", "open"}: true, {"half-open", "closed"}: true}
	from, opens := "closed", 0
	for i, ev := range tr.Breaker {
		if ev.Node != 0 || ev.From != from || !legal[[2]string{ev.From, ev.To}] {
			t.Fatalf("breaker event %+v after state %q", ev, from)
		}
		if ev.To == "open" {
			if opens == 0 {
				var failed int
				for _, d := range tr.Decisions[:ev.Seq] {
					if d.Key >= overloadKey {
						failed++
					}
				}
				if failed != cluster.BreakerThreshold {
					t.Fatalf("breaker opened after %d failed admissions, want %d", failed, cluster.BreakerThreshold)
				}
			}
			// legal order makes the next event the half-open one
			if i+1 < len(tr.Breaker) && tr.Breaker[i+1].Seq != ev.Seq {
				t.Fatalf("decisions %d..%d picked node 0 while its breaker was open", ev.Seq, tr.Breaker[i+1].Seq-1)
			}
			opens++
		}
		from = ev.To
	}
	if from != "closed" || opens == 0 || int64(opens) != st.BreakerTrips {
		t.Fatalf("breaker log ends %q with %d openings, %d trips counted", from, opens, st.BreakerTrips)
	}
}
