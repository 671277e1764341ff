package chaos

import (
	"fmt"
	"strings"

	"rt3/internal/cluster"
	"rt3/internal/loadgen"
	"rt3/internal/obs"
)

// Scenario is one fleet run: a load played against a running router
// while a fault schedule fires, with the router's decision trace
// replay-checked afterwards.
type Scenario struct {
	Router *cluster.Router
	// Schedule is the faults to fire; nil fires nothing.
	Schedule *Schedule
	// Load is the traffic, built by the caller (TraceSpec.Spec for a
	// trace) with its own Verify and Cancel: a closed Cancel ends the
	// arrival phase, and whatever the schedule has not fired by the time
	// the admitted work drains is cancelled.
	Load loadgen.Spec
	// Metrics, when non-nil, receives the injector's rt3_chaos_*
	// instruments before the run starts (rt3serve points this at the
	// router registry its admin endpoint already serves).
	Metrics *obs.Registry
}

// ScenarioReport bundles everything one fleet run produced.
type ScenarioReport struct {
	Profile  string          `json:"profile"`
	Workload *loadgen.Report `json:"workload"`
	Injector *InjectorTrace  `json:"injector"`
	Stats    cluster.Stats   `json:"stats"`
	// Replayed is the number of router decisions that re-executed
	// bit-identically from the recorded trace.
	Replayed  int    `json:"replayed"`
	ReplayErr string `json:"replay_err,omitempty"`
}

// String renders the report in the repo's table style: the faults and
// their outcomes (a header counting the fired ones, as
// rt3_chaos_events_total does, apart from those cancelled before
// firing), the workload, the router's counters and the replay.
func (r *ScenarioReport) String() string {
	var b strings.Builder
	if r.Profile != "" {
		fired, cancelled := r.Injector.Counts()
		fmt.Fprintf(&b, "profile %s: %d faults fired, %d cancelled", r.Profile, fired, cancelled)
		if r.Injector.ChaffOffered > 0 {
			fmt.Fprintf(&b, "  chaff %d offered / %d completed / %d shed / %d failed",
				r.Injector.ChaffOffered, r.Injector.ChaffCompleted, r.Injector.ChaffShed, r.Injector.ChaffFailed)
		}
		b.WriteByte('\n')
	}
	for _, f := range r.Injector.Fired {
		target := fmt.Sprintf("node %d", f.Event.Node)
		if f.Event.Node < 0 {
			target = "fleet"
		}
		fmt.Fprintf(&b, "  fault %d %-10s %-7s at %6.0fms: %s\n",
			f.Seq, f.Event.Kind, target, f.FiredAt.Seconds()*1000, f.Outcome)
	}
	b.WriteString(r.Workload.String())
	fmt.Fprintf(&b, "router: %.1f%% affinity  %d failovers  %d retries  %d breaker trips  %d drops  %d rollouts\n",
		r.Stats.AffinityHitRate()*100, r.Stats.Failovers, r.Stats.Retries, r.Stats.BreakerTrips, r.Stats.Drops, r.Stats.Rollouts)
	if r.ReplayErr != "" {
		fmt.Fprintf(&b, "decision replay FAILED: %s\n", r.ReplayErr)
	} else {
		fmt.Fprintf(&b, "decision replay: %d decisions bit-identical\n", r.Replayed)
	}
	return b.String()
}

// Run executes the scenario: the injector fires its schedule while the
// load plays; once the load has drained, the injector's remaining events
// are cancelled, the router's counter deltas are captured, and the
// recorded decision trace is replayed through a fresh policy instance.
// The router is left running (minus whatever the schedule killed).
func (sc Scenario) Run() (*ScenarioReport, error) {
	if sc.Router == nil {
		return nil, fmt.Errorf("chaos: scenario needs a router")
	}
	sched := sc.Schedule
	if sched == nil {
		sched = &Schedule{}
	}
	before := sc.Router.Stats()
	inj := NewInjector(sc.Router, sched)
	if sc.Metrics != nil {
		inj.RegisterMetrics(sc.Metrics)
	}

	// The injector is cancelled via done once the load has drained, so
	// faults cannot fire into a fleet with no traffic to observe them.
	done := make(chan struct{})
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		inj.Run(done)
	}()
	wl, err := loadgen.Run(sc.Router, sc.Load)
	close(done)
	<-injDone
	if err != nil {
		return nil, err
	}

	rep := &ScenarioReport{
		Profile:  sched.Profile,
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
