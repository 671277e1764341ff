// Package cluster is the sharded serving layer over serve.Server: a
// Router owns N simulated in-process nodes — each one a full server with
// its own queue, replicas, battery, and V/F level — and dispatches
// requests to them through pluggable policies (rendezvous hash on the
// session key, least-loaded, power-of-two-choices). Session affinity
// pins a generation stream's KV cache to one node; per-node health plus
// drain/restore enables zero-downtime pattern-set rollouts; and a node
// crash fails in-flight generations over to healthy nodes (the committed
// tokens are re-submitted through serve.SubmitGenResume, which
// teacher-forces them as one chunk). Router decisions are recorded in a seeded
// trace replayable like the autotune decision trace.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"rt3/internal/serve"
)

// NodeState is one node's position in the serving lifecycle.
type NodeState int32

// Node lifecycle: Cold (built, not started) → Active (in rotation) →
// Draining (out of rotation, in-flight work finishing) → Drained
// (quiesced — the rollout window) → Active again via Restore. Down is
// terminal: the node crashed (or was stopped) and left rotation for
// good.
const (
	Cold NodeState = iota
	Active
	Draining
	Drained
	Down
)

// String names the state for logs and the per-node state gauge.
func (s NodeState) String() string {
	switch s {
	case Cold:
		return "cold"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Drained:
		return "drained"
	case Down:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Node wraps one serve.Server as a cluster member: identity, lifecycle
// state, router-tracked in-flight accounting, and the health probe the
// router gates dispatch on.
type Node struct {
	// ID is the node's index in the router's member list.
	ID  int
	srv *serve.Server

	state atomic.Int32
	// inflight counts requests dispatched by the router whose responses
	// have not yet been delivered — the signal Drain waits on and one
	// input to Load.
	inflight atomic.Int64
	// dispatches counts requests the router sent here, cumulative.
	dispatches atomic.Int64
}

// NewNode wraps a built (not necessarily started) server as a cold
// cluster member.
func NewNode(id int, srv *serve.Server) *Node {
	n := &Node{ID: id, srv: srv}
	n.state.Store(int32(Cold))
	return n
}

// Server exposes the wrapped server (metrics registries, dense
// references, direct control in tests).
func (n *Node) Server() *serve.Server { return n.srv }

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

// Inflight returns the router-tracked in-flight request count.
func (n *Node) Inflight() int { return int(n.inflight.Load()) }

// Dispatches returns the cumulative requests routed here.
func (n *Node) Dispatches() int64 { return n.dispatches.Load() }

// Start launches the wrapped server and puts the node in rotation.
// Legal from Cold only; returns whether the transition happened (a
// drained or down node is not restarted).
func (n *Node) Start() bool {
	if !n.state.CompareAndSwap(int32(Cold), int32(Active)) {
		return false
	}
	n.srv.Start()
	return true
}

// Ready reports whether the router may dispatch new work here.
func (n *Node) Ready() bool { return n.Probe() == nil }

// Probe is the node's health check: nil when the node accepts new
// traffic, otherwise an error naming why not — lifecycle state first
// (cold, draining, drained, down), then the wrapped server's own
// admission state (stopped), then battery exhaustion from its Status.
// The admin /readyz endpoint serves exactly this.
func (n *Node) Probe() error {
	if st := n.State(); st != Active {
		return fmt.Errorf("cluster: node %d is %s", n.ID, st)
	}
	if n.srv.Stopped() {
		return fmt.Errorf("cluster: node %d server is stopped", n.ID)
	}
	if n.srv.BatteryFraction() <= 0 {
		return fmt.Errorf("cluster: node %d battery exhausted", n.ID)
	}
	return nil
}

// Load scores the node's current congestion for the load-aware
// policies: outstanding work (queued plus in-flight, plus one so an
// idle node still ranks by speed) scaled by the active level's slowdown
// f_fastest/f_level — a node serving a slow V/F level counts each
// queued request proportionally heavier, exactly the stretch SimDVFS
// applies to its execution.
func (n *Node) Load() float64 {
	st := n.srv.Status()
	levels := n.srv.Engine().Levels()
	factor := 1.0
	if f := levels[0].FreqMHz / levels[st.Level].FreqMHz; f > 1 {
		factor = f
	}
	return float64(1+st.QueueDepth+n.Inflight()) * factor
}

// StartDrain takes the node out of rotation without waiting: new
// dispatches stop (Probe fails), in-flight work keeps running. Legal
// from Active only; returns whether the transition happened.
func (n *Node) StartDrain() bool {
	return n.state.CompareAndSwap(int32(Active), int32(Draining))
}

// AwaitDrained blocks until every router-dispatched request has
// delivered its response, then marks the node Drained — the quiesced
// window a rollout performs its switch in. Poll granularity is modest
// (200µs) because drains ride request tails measured in milliseconds.
// Legal from Draining (idempotently true when already Drained); returns
// whether the node ended up Drained — false when it was crashed or
// restored concurrently, or was never draining.
func (n *Node) AwaitDrained() bool {
	for NodeState(n.state.Load()) == Draining && n.inflight.Load() > 0 {
		time.Sleep(200 * time.Microsecond)
	}
	n.state.CompareAndSwap(int32(Draining), int32(Drained))
	return NodeState(n.state.Load()) == Drained
}

// Restore puts a draining or drained node back in rotation. Legal from
// Draining and Drained only; returns whether the transition happened (a
// cold, active, or down node is left untouched).
func (n *Node) Restore() bool {
	return n.state.CompareAndSwap(int32(Draining), int32(Active)) ||
		n.state.CompareAndSwap(int32(Drained), int32(Active))
}

// Crash simulates the node dying: it leaves rotation immediately and
// the wrapped server aborts in-flight work at fused-step boundaries
// with serve.ErrCrashed — the partial responses the router's failover
// path replays onto healthy nodes. Terminal; legal from every live
// state (Cold, Active, Draining, Drained). Returns whether the node
// went down now — false when it was already Down, so a chaos schedule
// firing twice at the same target cannot double-kill.
func (n *Node) Crash() bool {
	if !n.transitionDown() {
		return false
	}
	n.srv.Kill()
	return true
}

// Stop gracefully stops the node: out of rotation, queued and in-flight
// work runs to completion. Terminal, like Crash, but loses nothing.
// Returns whether the node went down now (false when already Down).
func (n *Node) Stop() bool {
	if !n.transitionDown() {
		return false
	}
	n.srv.Stop()
	return true
}

// transitionDown moves any live state to Down exactly once.
func (n *Node) transitionDown() bool {
	for {
		cur := n.state.Load()
		if NodeState(cur) == Down {
			return false
		}
		if n.state.CompareAndSwap(cur, int32(Down)) {
			return true
		}
	}
}
