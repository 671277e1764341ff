// Package chaos is the deterministic fault-injection and scenario-
// replay harness over the cluster serving layer: a seeded Schedule of
// fault events (node crashes mid-generation, battery collapses, failed
// pattern switches under load, transient stragglers, queue-overload
// pulses, rollout sweeps) fired at virtual-time offsets against a
// trace-driven workload, with every injection recorded in a replayable
// trace. The harness closes the loop the paper's run-time system
// implies: reconfiguration is only worth its cost if the serving stack
// stays correct while the platform misbehaves, so every response that
// survives a fault is dense-verified token-for-token.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rt3/internal/cluster"
	"rt3/internal/dvfs"
	"rt3/internal/hwsim"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
)

// FaultKind names one category of injected fault.
type FaultKind string

// Fault kinds. Each maps to one concrete hook on the cluster stack.
const (
	// FaultCrash kills a node mid-generation (Node.Crash) once it holds
	// at least max(Param, 1) unfinished requests; in-flight generations
	// surface as crashed responses the router fails over.
	FaultCrash FaultKind = "crash"
	// FaultCollapse forces a node's battery to Param fraction of its
	// capacity; at ~0 the readiness probe fails and the router routes
	// around the node.
	FaultCollapse FaultKind = "collapse"
	// FaultSwitchFail arms a one-shot reconfiguration error on a node
	// and immediately attempts the switch: the switch must fail, the
	// node must roll back to its old level and return to rotation.
	FaultSwitchFail FaultKind = "switchfail"
	// FaultSlowdown stretches a node's modeled execution by Param
	// (a straggler); Param <= 1 clears an active slowdown.
	FaultSlowdown FaultKind = "slowdown"
	// FaultPulse submits Param chaff generations in one burst —
	// a queue-overload pulse that exercises shedding, retries, and the
	// breaker without counting against the workload's own floors.
	FaultPulse FaultKind = "pulse"
	// FaultRollout sweeps the whole fleet to level Param through the
	// zero-downtime drain → switch → restore window.
	FaultRollout FaultKind = "rollout"
)

// Event is one scheduled fault. At is a virtual-time offset from the
// scenario's start; Node is the target member (-1 for cluster-wide
// events like rollouts).
type Event struct {
	At    time.Duration `json:"at"`
	Kind  FaultKind     `json:"kind"`
	Node  int           `json:"node"`
	Param float64       `json:"param,omitempty"`
}

// Schedule is a seeded, fully materialized fault plan: the same
// (profile, nodes, duration, seed) always builds the identical event
// list, which is what makes a chaos run replayable.
type Schedule struct {
	Profile  string        `json:"profile"`
	Nodes    int           `json:"nodes"`
	Duration time.Duration `json:"duration"`
	Seed     int64         `json:"seed"`
	Events   []Event       `json:"events"`
}

// Profiles lists the built-in schedule profiles.
func Profiles() []string {
	return []string{"none", "crash", "collapse", "switchfail", "slowdown", "pulse", "rollout", "all"}
}

// StragglerFactor derives the slowdown profile's stretch factor from
// the hardware model instead of a magic number: the latency ratio
// between the slowest and fastest Table I V/F levels — the stretch a
// node experiences when its DVFS governor wedges at the lowest level.
func StragglerFactor() float64 {
	const cycles = 1e6 // ratio is cycle-count invariant
	slow, fast := 0.0, 0.0
	for i, l := range dvfs.OdroidXU3Levels {
		ms := hwsim.LatencyMS(cycles, l)
		if i == 0 || ms > slow {
			slow = ms
		}
		if i == 0 || ms < fast {
			fast = ms
		}
	}
	return slow / fast
}

// NewSchedule builds the named profile's fault plan for a cluster of
// the given size over the given wall window. Pure function of its
// arguments: event targets are drawn from a rand seeded with seed, and
// faults never target node 0 — the dense-verification reference node —
// so a killed cluster always keeps one node whose engine can compute
// references (a crashed server's engine still evaluates; only its
// workers die).
func NewSchedule(profile string, nodes int, duration time.Duration, seed int64) (*Schedule, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("chaos: need at least 2 nodes, got %d", nodes)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("chaos: duration must be positive")
	}
	s := &Schedule{Profile: profile, Nodes: nodes, Duration: duration, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	// victim picks a faultable node: never 0, deterministic in rng order
	victim := func() int { return 1 + rng.Intn(nodes-1) }
	at := func(frac float64) time.Duration { return time.Duration(float64(duration) * frac) }

	add := func(kinds ...string) error {
		for _, k := range kinds {
			switch k {
			case "crash":
				s.Events = append(s.Events, Event{At: at(0.40), Kind: FaultCrash, Node: victim()})
			case "collapse":
				s.Events = append(s.Events, Event{At: at(0.50), Kind: FaultCollapse, Node: victim(), Param: 0.002})
			case "switchfail":
				s.Events = append(s.Events, Event{At: at(0.30), Kind: FaultSwitchFail, Node: victim(), Param: 1})
			case "slowdown":
				nd := victim()
				f := StragglerFactor()
				s.Events = append(s.Events,
					Event{At: at(0.30), Kind: FaultSlowdown, Node: nd, Param: f},
					Event{At: at(0.65), Kind: FaultSlowdown, Node: nd, Param: 1})
			case "pulse":
				s.Events = append(s.Events,
					Event{At: at(0.25), Kind: FaultPulse, Node: -1, Param: 16},
					Event{At: at(0.60), Kind: FaultPulse, Node: -1, Param: 16})
			case "rollout":
				s.Events = append(s.Events,
					Event{At: at(0.35), Kind: FaultRollout, Node: -1, Param: 1},
					Event{At: at(0.75), Kind: FaultRollout, Node: -1, Param: 0})
			default:
				return fmt.Errorf("chaos: unknown profile %q (have %v)", profile, Profiles())
			}
		}
		return nil
	}

	var err error
	switch profile {
	case "none":
	case "all":
		// every fault class in one run; rollout first so the crash lands
		// on a fleet mid-churn, pulse last into the degraded fleet
		err = add("switchfail", "rollout", "crash", "collapse", "slowdown", "pulse")
	default:
		err = add(profile)
	}
	if err != nil {
		return nil, err
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}

// errInjected is the planted reconfiguration failure.
var errInjected = errors.New("chaos: injected switch fault")

// outcomeCancelled is the outcome the injector records for an event
// the run ended before it was due; every other outcome is a fired one's.
const outcomeCancelled = "cancelled before firing"

// Fired is one applied fault in the injector's trace: the event, the
// wall offset it actually fired at, and what happened.
type Fired struct {
	Seq     int           `json:"seq"`
	Event   Event         `json:"event"`
	FiredAt time.Duration `json:"fired_at"`
	Outcome string        `json:"outcome"`
}

// InjectorTrace is the replayable record of one injection run. Two
// runs of the same schedule produce the same event sequence; FiredAt
// wall offsets are informational.
type InjectorTrace struct {
	Profile string  `json:"profile"`
	Seed    int64   `json:"seed"`
	Fired   []Fired `json:"fired"`
	// ChaffOffered/Completed/Shed/Failed account the pulse traffic,
	// which is tracked apart from the measured workload.
	ChaffOffered   int `json:"chaff_offered"`
	ChaffCompleted int `json:"chaff_completed"`
	ChaffShed      int `json:"chaff_shed"`
	ChaffFailed    int `json:"chaff_failed"`
}

// Counts returns how many of the trace's events fired, whatever their
// outcome (what rt3_chaos_events_total counts), and how many were
// cancelled before firing.
func (t *InjectorTrace) Counts() (fired, cancelled int) {
	for _, f := range t.Fired {
		if f.Outcome == outcomeCancelled {
			cancelled++
		}
	}
	return len(t.Fired) - cancelled, cancelled
}

// Injector owns a schedule and fires it against a router. One injector
// drives one run.
type Injector struct {
	r     *cluster.Router
	sched *Schedule

	mu    sync.Mutex
	fired []Fired

	events    atomic.Int64
	crashes   atomic.Int64
	chaffOff  atomic.Int64
	chaffDone atomic.Int64
	chaffShed atomic.Int64
	chaffFail atomic.Int64
	chaffWG   sync.WaitGroup
}

// NewInjector binds a schedule to the router it will torment.
func NewInjector(r *cluster.Router, sched *Schedule) *Injector {
	return &Injector{r: r, sched: sched}
}

// chaffKeyBase keeps pulse sessions disjoint from any workload session.
const chaffKeyBase uint64 = 1 << 32

// Run fires every scheduled event once it is due (see due), blocking
// until the last event has been applied (and all chaff pulses have
// resolved) or cancel closes; an event cancel overtakes is recorded as
// cancelled. Safe to run concurrently with a workload player — that is
// the point.
func (in *Injector) Run(cancel <-chan struct{}) {
	start := time.Now()
	for i, ev := range in.sched.Events {
		if !in.due(ev, start, cancel) {
			in.record(i, ev, time.Since(start), outcomeCancelled)
			continue
		}
		in.apply(i, ev, time.Since(start))
	}
	in.chaffWG.Wait()
}

// due blocks until ev may fire and reports false if cancel closes
// first. An event is due at its offset from start; a crash is due once
// its victim's server also holds at least max(Param, 1) unfinished
// requests, so it always has work to fail over.
func (in *Injector) due(ev Event, start time.Time, cancel <-chan struct{}) bool {
	wait := time.After(time.Until(start.Add(ev.At)))
	for {
		select {
		case <-cancel:
			return false
		case <-wait:
		}
		if ev.Kind != FaultCrash {
			return true
		}
		nd, err := in.node(ev.Node)
		if err != nil || held(nd) >= max(int(ev.Param), 1) {
			return true // apply records a bad target
		}
		wait = time.After(time.Millisecond)
	}
}

// held counts the requests nd's server has admitted and neither
// delivered nor aborted, from its tracer's counters: every admission
// starts a trace, which ends in one Finish or one Abort. The router's
// in-flight count would overstate it: it still counts responses the
// server has already sent.
func held(nd *cluster.Node) int {
	m := nd.Server().Metrics().Snapshot()
	return int(m["rt3_traces_started_total"] - m["rt3_traces_finished_total"] - m["rt3_traces_aborted_total"])
}

// apply fires one event and records its outcome.
func (in *Injector) apply(seq int, ev Event, at time.Duration) {
	in.events.Add(1)
	outcome := "applied"
	switch ev.Kind {
	case FaultCrash:
		if err := in.r.Crash(ev.Node); err != nil {
			outcome = err.Error()
		} else {
			in.crashes.Add(1)
		}
	case FaultCollapse:
		nd, err := in.node(ev.Node)
		switch {
		case err != nil:
			outcome = err.Error()
		case !nd.Server().CollapseBattery(ev.Param):
			outcome = "no battery configured"
		default:
			outcome = fmt.Sprintf("battery forced to %.3f", ev.Param)
		}
	case FaultSwitchFail:
		nd, err := in.node(ev.Node)
		if err != nil {
			outcome = err.Error()
			break
		}
		before := nd.Server().Engine().Level()
		nd.Server().Engine().InjectSwitchError(errInjected)
		err = in.r.SwitchNode(ev.Node, int(ev.Param))
		after := nd.Server().Engine().Level()
		switch {
		case err == nil:
			outcome = "UNEXPECTED: injected switch succeeded"
		case after != before:
			outcome = fmt.Sprintf("UNEXPECTED: failed switch moved level %d -> %d", before, after)
		case !nd.Ready():
			outcome = fmt.Sprintf("UNEXPECTED: node not restored after failed switch: %v", nd.Probe())
		default:
			outcome = fmt.Sprintf("switch failed as injected, node rolled back to level %d: %v", before, err)
		}
	case FaultSlowdown:
		nd, err := in.node(ev.Node)
		if err != nil {
			outcome = err.Error()
			break
		}
		nd.Server().SetSlowdown(ev.Param)
		if ev.Param > 1 {
			outcome = fmt.Sprintf("straggler x%.2f", ev.Param)
		} else {
			outcome = "straggler cleared"
		}
	case FaultPulse:
		n := int(ev.Param)
		outcome = fmt.Sprintf("pulse of %d chaff generations", n)
		in.firePulse(seq, n)
	case FaultRollout:
		if err := in.r.RolloutSwitch(int(ev.Param)); err != nil {
			outcome = fmt.Sprintf("rollout to level %d: %v", int(ev.Param), err)
		} else {
			outcome = fmt.Sprintf("rolled out level %d", int(ev.Param))
		}
	default:
		outcome = fmt.Sprintf("unknown fault kind %q", ev.Kind)
	}
	in.record(seq, ev, at, outcome)
}

// firePulse submits n chaff generations in one burst and tracks their
// outcomes separately from the measured workload. Chaff responses may
// be shed (queue full / no ready nodes) — that is the
// pressure the pulse exists to create — but a chaff stream the router
// accepted must still complete or the run records a chaff failure.
func (in *Injector) firePulse(seq, n int) {
	for i := 0; i < n; i++ {
		key := chaffKeyBase + uint64(seq)<<16 + uint64(i)
		in.chaffOff.Add(1)
		ch, err := in.r.SubmitGen(key, []int{1 + i%7, 2, 3}, 4, -1)
		if err != nil {
			in.chaffShed.Add(1)
			continue
		}
		in.chaffWG.Add(1)
		go func() {
			defer in.chaffWG.Done()
			resp := <-ch
			switch {
			case resp.Err == nil:
				in.chaffDone.Add(1)
			case loadgen.IsShed(resp.Err):
				in.chaffShed.Add(1)
			default:
				in.chaffFail.Add(1)
			}
		}()
	}
}

func (in *Injector) node(id int) (*cluster.Node, error) {
	nodes := in.r.Nodes()
	if id < 0 || id >= len(nodes) {
		return nil, fmt.Errorf("chaos: node %d out of range %d", id, len(nodes))
	}
	return nodes[id], nil
}

func (in *Injector) record(seq int, ev Event, at time.Duration, outcome string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fired = append(in.fired, Fired{Seq: seq, Event: ev, FiredAt: at, Outcome: outcome})
}

// Trace snapshots the injection record.
func (in *Injector) Trace() *InjectorTrace {
	in.mu.Lock()
	fired := append([]Fired(nil), in.fired...)
	in.mu.Unlock()
	return &InjectorTrace{
		Profile:        in.sched.Profile,
		Seed:           in.sched.Seed,
		Fired:          fired,
		ChaffOffered:   int(in.chaffOff.Load()),
		ChaffCompleted: int(in.chaffDone.Load()),
		ChaffShed:      int(in.chaffShed.Load()),
		ChaffFailed:    int(in.chaffFail.Load()),
	}
}

// RegisterMetrics exposes the injector's counters as an rt3_chaos_*
// family on an obs registry.
func (in *Injector) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("rt3_chaos_events_total",
		"Fault events fired by the chaos injector.",
		func() float64 { return float64(in.events.Load()) })
	reg.CounterFunc("rt3_chaos_crashes_total",
		"Node crashes injected.",
		func() float64 { return float64(in.crashes.Load()) })
	reg.CounterFunc("rt3_chaos_chaff_total",
		"Chaff generations submitted by overload pulses.",
		func() float64 { return float64(in.chaffOff.Load()) })
	reg.CounterFunc("rt3_chaos_chaff_failed_total",
		"Accepted chaff generations that failed to deliver.",
		func() float64 { return float64(in.chaffFail.Load()) })
}
