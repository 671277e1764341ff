package serve

import "rt3/internal/dvfs"

// Policy decides which V/F level the server should run at next. Decide
// is called from the server's policy loop, never concurrently.
type Policy interface {
	Decide(s Status) int
}

// GovernorPolicy drives the level from the simulated battery through the
// dvfs energy-threshold governor — the paper's "dancing along battery"
// behaviour — with one escalation: when the queue backs up past
// HighWater, it requests one level faster than the governor would,
// trading energy for latency under pressure.
type GovernorPolicy struct {
	Gov *dvfs.Governor
	// HighWater is the queue depth that triggers escalation (0 disables).
	HighWater int
}

// NewGovernorPolicy builds the default battery-driven policy over the
// deployed levels (fastest first).
func NewGovernorPolicy(levels []dvfs.Level, highWater int) *GovernorPolicy {
	return &GovernorPolicy{Gov: dvfs.NewGovernor(levels), HighWater: highWater}
}

// Decide implements Policy.
func (p *GovernorPolicy) Decide(s Status) int {
	idx := p.Gov.PickIndex(s.BatteryFraction)
	if p.HighWater > 0 && s.QueueDepth >= p.HighWater && idx > 0 {
		idx--
	}
	return idx
}
