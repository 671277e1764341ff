package chaos

import (
	"fmt"
	"strings"

	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
)

// Scenario composes one chaos run: a fault schedule fired against a
// trace-driven workload on a running router, with the router's decision
// trace replay-checked afterwards.
type Scenario struct {
	Router   *cluster.Router
	Schedule *Schedule
	Spec     *TraceSpec
	Seed     int64
	// TimeScale stretches (>1) or compresses (<1) every bucket window
	// (default 1).
	TimeScale float64
	// Verify dense-checks every completed response on node 0's engine,
	// which no schedule faults.
	Verify bool
	// Cancel ends the workload's arrival phase early and stops the
	// injector from firing further events.
	Cancel <-chan struct{}
	// Metrics, when non-nil, receives the injector's rt3_chaos_*
	// instruments before the run starts (rt3serve points this at the
	// router registry its admin endpoint already serves).
	Metrics *obs.Registry
}

// ScenarioReport bundles everything one chaos run produced.
type ScenarioReport struct {
	Profile  string          `json:"profile"`
	Trace    string          `json:"trace"`
	Workload *loadgen.Report `json:"workload"`
	Injector *InjectorTrace  `json:"injector"`
	Stats    cluster.Stats   `json:"stats"`
	// Replayed is the number of router decisions that re-executed
	// bit-identically from the recorded trace.
	Replayed  int    `json:"replayed"`
	ReplayErr string `json:"replay_err,omitempty"`
}

// String renders the report in the repo's table style.
func (r *ScenarioReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: %d faults fired", r.Profile, len(r.Injector.Fired))
	if r.Injector.ChaffOffered > 0 {
		fmt.Fprintf(&b, "  chaff %d offered / %d completed / %d shed / %d failed",
			r.Injector.ChaffOffered, r.Injector.ChaffCompleted, r.Injector.ChaffShed, r.Injector.ChaffFailed)
	}
	fmt.Fprintf(&b, "\ntrace %s: %s", r.Trace, r.Workload)
	fmt.Fprintf(&b, "router: %d failovers  %d retries  %d deadline-exceeded  %d breaker trips  %d drops  %d rollouts\n",
		r.Stats.Failovers, r.Stats.Retries, r.Stats.DeadlineExceeded, r.Stats.BreakerTrips, r.Stats.Drops, r.Stats.Rollouts)
	if r.ReplayErr != "" {
		fmt.Fprintf(&b, "decision replay FAILED: %s\n", r.ReplayErr)
	} else {
		fmt.Fprintf(&b, "decision replay: %d decisions bit-identical\n", r.Replayed)
	}
	return b.String()
}

// Run executes the scenario: the injector fires its schedule while the
// workload replays its trace; once the workload has drained, the
// injector's remaining events are cancelled, the router's counter
// deltas are captured, and the recorded decision trace is replayed
// through a fresh policy instance. The router is left running (minus
// whatever the schedule killed).
func (sc Scenario) Run() (*ScenarioReport, error) {
	if sc.Router == nil || sc.Schedule == nil || sc.Spec == nil {
		return nil, fmt.Errorf("chaos: scenario needs a router, a schedule, and a trace spec")
	}
	scale := sc.TimeScale
	if scale <= 0 {
		scale = 1
	}
	spec := sc.Spec.Spec(sc.Seed, scale)
	spec.Cancel = sc.Cancel
	if sc.Verify {
		spec.Verify = sc.Router.Nodes()[0].Server()
	}
	before := sc.Router.Stats()
	inj := NewInjector(sc.Router, sc.Schedule)
	if sc.Metrics != nil {
		inj.RegisterMetrics(sc.Metrics)
	}

	// A closed Cancel ends the workload's arrival phase; the injector is
	// cancelled via done once the workload has drained, so faults cannot
	// fire into a fleet with no traffic to observe them.
	done := make(chan struct{})
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		inj.Run(done)
	}()
	wl, err := loadgen.Run(sc.Router, spec)
	close(done)
	<-injDone
	if err != nil {
		return nil, err
	}

	rep := &ScenarioReport{
		Profile:  sc.Schedule.Profile,
		Trace:    sc.Spec.Name,
		Workload: wl,
		Injector: inj.Trace(),
		Stats:    sc.Router.Stats().Sub(before),
	}
	n, rerr := cluster.Replay(sc.Router.Trace())
	rep.Replayed = n
	if rerr != nil {
		rep.ReplayErr = rerr.Error()
	}
	return rep, nil
}
