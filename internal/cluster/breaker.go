package cluster

import "time"

// BreakerState is one node's circuit-breaker position.
type BreakerState int32

// Breaker state machine: Closed (node dispatchable) → Open after
// breakerThreshold consecutive admission failures (node excluded from
// every ready set) → HalfOpen once the cooldown elapses (exactly one
// trial dispatch is admitted) → Closed on trial success, back to Open on
// trial failure. Because admission outcomes resolve synchronously under
// the router lock, the half-open window never spans more than one
// attempt.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for the trace event log and the
// rt3_breaker_state gauge legend.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Every node's breaker: breakerThreshold consecutive failures
// (queue-full or stopped admissions, crashed responses) trip Closed →
// Open, and an open breaker excludes its node for breakerCooldown before
// admitting one half-open trial.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Millisecond
)

// breaker is one node's circuit breaker. All fields are guarded by
// Router.mu — breaker decisions are part of the serialized dispatch
// path, which is what lets transitions land in the trace in a total
// order.
type breaker struct {
	state    BreakerState
	failures int       // consecutive failures while Closed
	openedAt time.Time // when the breaker last opened
}

// breakerAllow reports whether node id may appear in the ready set,
// moving an open breaker to half-open once its cooldown has elapsed.
// Caller holds r.mu.
func (r *Router) breakerAllow(id int, now time.Time) bool {
	b := r.breakers[id]
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) >= breakerCooldown {
			r.setBreaker(id, BreakerHalfOpen)
			return true
		}
		return false
	default: // Closed, or HalfOpen awaiting its trial's outcome
		return true
	}
}

// breakerSuccess records a successful admission on node id: the failure
// streak resets and a half-open breaker closes. Caller holds r.mu.
func (r *Router) breakerSuccess(id int) {
	b := r.breakers[id]
	b.failures = 0
	if b.state != BreakerClosed {
		r.setBreaker(id, BreakerClosed)
	}
}

// breakerFailure records a failed admission (or crashed response) on
// node id: a half-open trial failure reopens immediately, a closed
// breaker opens once the streak reaches breakerThreshold. Caller holds
// r.mu.
func (r *Router) breakerFailure(id int, now time.Time) {
	b := r.breakers[id]
	switch b.state {
	case BreakerHalfOpen:
		b.openedAt = now
		r.setBreaker(id, BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= breakerThreshold {
			b.failures = 0
			b.openedAt = now
			r.setBreaker(id, BreakerOpen)
		}
	}
}

// setBreaker transitions node id's breaker and appends the event to the
// trace's breaker log. Caller holds r.mu.
func (r *Router) setBreaker(id int, to BreakerState) {
	b := r.breakers[id]
	from := b.state
	b.state = to
	if to == BreakerOpen {
		r.breakerTrips.Add(1)
	}
	r.breakerLog = append(r.breakerLog, BreakerEvent{
		Seq: len(r.trace), Node: id, From: from.String(), To: to.String(),
	})
}

// NodeBreakerState returns node id's current breaker position
// (BreakerClosed when id is out of range).
func (r *Router) NodeBreakerState(id int) BreakerState {
	if id < 0 || id >= len(r.breakers) {
		return BreakerClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.breakers[id].state
}
