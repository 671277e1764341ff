package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rt3/internal/obs"
	"rt3/internal/serve"
)

// Routing errors.
var (
	// ErrNoReadyNodes means no node is accepting traffic — every member
	// is cold, draining, down, battery-exhausted, or breaker-open.
	ErrNoReadyNodes = errors.New("cluster: no ready nodes")
	// ErrDeadlineExceeded means a request exhausted its RequestTimeout
	// while waiting out backoff retries.
	ErrDeadlineExceeded = errors.New("cluster: request deadline exceeded")
)

// maxBackoff caps one backoff wait so deep retry chains degrade into
// steady polling instead of multi-second stalls.
const maxBackoff = 250 * time.Millisecond

// Config tunes the router. Zero values pick the documented defaults.
type Config struct {
	// Policy places requests without a live session pin (default
	// HashPolicy — rendezvous hashing on the session key).
	Policy Policy
	// Seed feeds the router rng (consumed only by randomized policies)
	// and stamps the decision trace; the same seed over the same request
	// sequence reproduces every routing decision. The retry-jitter rng
	// is seeded from it too, but kept separate so jitter never perturbs
	// policy replay.
	Seed int64
	// FailoverRetries caps how many times one request is re-dispatched
	// after crashes before its ErrCrashed response is surfaced to the
	// caller (default 3).
	FailoverRetries int
	// MaxRetries caps backoff re-dispatches after a retryable admission
	// failure (queue full everywhere, or an empty ready set) before the
	// error is surfaced. 0 disables retries — the request fails
	// synchronously, the pre-chaos behavior.
	MaxRetries int
	// RetryBackoff is the wait before the first retry; each further
	// retry doubles it, with ±50% seeded jitter, capped at 250ms.
	// Default 1ms when MaxRetries > 0.
	RetryBackoff time.Duration
	// RequestTimeout, when > 0, bounds one request's total stay in the
	// backoff-retry loop: once the deadline would pass, the request
	// fails with ErrDeadlineExceeded even if retries remain. A response
	// already executing on a node is always delivered.
	RequestTimeout time.Duration
	// Breaker tunes the per-node circuit breakers (disabled by default).
	Breaker BreakerConfig
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = HashPolicy{}
	}
	if c.FailoverRetries <= 0 {
		c.FailoverRetries = 3
	}
	if c.MaxRetries > 0 && c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Stats is a snapshot of the router's cumulative counters.
type Stats struct {
	// Dispatches counts requests handed to a node (failover re-dispatches
	// included).
	Dispatches int64
	// AffinityHits are dispatches served by the session's pinned node;
	// AffinityMisses are forced re-pins (the pinned node had left
	// rotation or refused); SessionPins are first-time placements.
	AffinityHits, AffinityMisses, SessionPins int64
	// Failovers counts crash recoveries — generations re-submitted with
	// their committed prefix onto a healthy node.
	Failovers int64
	// Drops counts requests shed with ErrQueueFull.
	Drops int64
	// Rollouts counts completed RolloutSwitch sweeps.
	Rollouts int64
	// Retries counts backoff re-dispatches after retryable admission
	// failures.
	Retries int64
	// DeadlineExceeded counts requests failed on their RequestTimeout
	// while retrying.
	DeadlineExceeded int64
	// BreakerTrips counts circuit-breaker opens.
	BreakerTrips int64
}

// AffinityHitRate is hits over pinned dispatches (hits + forced
// re-pins); first-time placements are not held against it. 1 when no
// pinned dispatch happened yet.
func (s Stats) AffinityHitRate() float64 {
	if s.AffinityHits+s.AffinityMisses == 0 {
		return 1
	}
	return float64(s.AffinityHits) / float64(s.AffinityHits+s.AffinityMisses)
}

// Sub returns the counters accumulated since the earlier snapshot prev —
// the delta a run on an already-used router is reported by.
func (s Stats) Sub(prev Stats) Stats {
	s.Dispatches -= prev.Dispatches
	s.AffinityHits -= prev.AffinityHits
	s.AffinityMisses -= prev.AffinityMisses
	s.SessionPins -= prev.SessionPins
	s.Failovers -= prev.Failovers
	s.Drops -= prev.Drops
	s.Rollouts -= prev.Rollouts
	s.Retries -= prev.Retries
	s.DeadlineExceeded -= prev.DeadlineExceeded
	s.BreakerTrips -= prev.BreakerTrips
	return s
}

// Router fronts a set of nodes: Submit and SubmitGen route requests via
// the configured policy with session affinity for generations, watch
// for crashed responses and fail them over (a generation resumes from
// its committed tokens through serve.SubmitGenResume), and record every
// policy decision in a replayable trace. Drain, SwitchNode and
// RolloutSwitch run zero-downtime maintenance; the rt3_cluster_* metric
// families live on Metrics().
type Router struct {
	nodes []*Node
	cfg   Config
	pol   Policy
	reg   *obs.Registry

	// mu serializes routing: session-pin resolution, the policy pick
	// (and its rng consumption), the trace append, and the admission
	// attempt happen atomically per dispatch, which is what makes the
	// decision trace replayable.
	mu         sync.Mutex
	rng        *rand.Rand
	sessions   map[uint64]int // session key -> node ID holding its pin
	trace      []Decision
	breakers   []*breaker
	breakerLog []BreakerEvent

	// jmu/jrng feed retry-backoff jitter from a seed-derived stream kept
	// apart from the policy rng, so retries never shift decision replay.
	jmu  sync.Mutex
	jrng *rand.Rand

	wg sync.WaitGroup // response-forwarding goroutines

	dispatches     atomic.Int64
	affinityHits   atomic.Int64
	affinityMisses atomic.Int64
	sessionPins    atomic.Int64
	failovers      atomic.Int64
	drops          atomic.Int64
	rollouts       atomic.Int64
	retries        atomic.Int64
	deadlines      atomic.Int64
	breakerTrips   atomic.Int64

	replayTokens *obs.Histogram
	drainMS      *obs.Histogram
}

// New builds a router over the given nodes. Node IDs must equal their
// index (the routing tables are index-addressed); New panics otherwise,
// as this is a construction bug, not a runtime condition.
func New(nodes []*Node, cfg Config) *Router {
	if len(nodes) == 0 {
		panic("cluster: router needs at least one node")
	}
	for i, nd := range nodes {
		if nd.ID != i {
			panic(fmt.Sprintf("cluster: node at index %d has ID %d; IDs must equal indices", i, nd.ID))
		}
	}
	cfg = cfg.withDefaults()
	r := &Router{
		nodes:    nodes,
		cfg:      cfg,
		pol:      cfg.Policy,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		jrng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d)),
		sessions: make(map[uint64]int),
		breakers: make([]*breaker, len(nodes)),
	}
	for i := range r.breakers {
		r.breakers[i] = &breaker{}
	}
	r.registerMetrics()
	return r
}

// Nodes exposes the member list (index == node ID).
func (r *Router) Nodes() []*Node { return r.nodes }

// Policy returns the active dispatch policy.
func (r *Router) Policy() Policy { return r.pol }

// Start launches every cold node.
func (r *Router) Start() {
	for _, nd := range r.nodes {
		nd.Start()
	}
}

// ReadyNodes returns how many members currently accept traffic.
func (r *Router) ReadyNodes() int {
	n := 0
	for _, nd := range r.nodes {
		if nd.Ready() {
			n++
		}
	}
	return n
}

// Stats snapshots the router counters.
func (r *Router) Stats() Stats {
	return Stats{
		Dispatches:       r.dispatches.Load(),
		AffinityHits:     r.affinityHits.Load(),
		AffinityMisses:   r.affinityMisses.Load(),
		SessionPins:      r.sessionPins.Load(),
		Failovers:        r.failovers.Load(),
		Drops:            r.drops.Load(),
		Rollouts:         r.rollouts.Load(),
		Retries:          r.retries.Load(),
		DeadlineExceeded: r.deadlines.Load(),
		BreakerTrips:     r.breakerTrips.Load(),
	}
}

// Trace snapshots the decision log with the policy and seed that
// produced it; cluster.Replay verifies it reproduces.
func (r *Router) Trace() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Trace{
		Policy:    r.pol.Name(),
		Seed:      r.cfg.Seed,
		Decisions: append([]Decision(nil), r.trace...),
		Breaker:   append([]BreakerEvent(nil), r.breakerLog...),
	}
}

// Metrics exposes the rt3_cluster_* registry (serve it alongside the
// per-node registries on the admin mux).
func (r *Router) Metrics() *obs.Registry { return r.reg }

// SubmitGen routes one generation request: the session's pinned node if
// it is ready (affinity — consecutive generations of one session land
// where their KV/prefix locality is), otherwise a policy pick that
// becomes the new pin. The returned channel delivers exactly one
// response; a node crash mid-generation is handled inside — the
// committed tokens fail over to a healthy node, which teacher-forces
// them as one chunk and decodes on, and the caller only ever sees the
// completed stream (or an error after FailoverRetries unlucky attempts).
// With MaxRetries > 0, retryable admission failures are absorbed too:
// the request backs off and re-dispatches asynchronously instead of
// failing synchronously. maxTokens and eos follow serve.SubmitGen
// conventions.
func (r *Router) SubmitGen(key uint64, prompt []int, maxTokens, eos int) (<-chan serve.GenResponse, error) {
	return submit[serve.GenResponse](r, key, &genJob{prompt: prompt, maxTokens: maxTokens, eos: eos})
}

// Submit routes one classification request. No session pin is involved
// (there is no KV cache to be affine to) — the policy picks per
// request, and a crashed response is transparently re-dispatched whole.
// Backoff retries apply as in SubmitGen.
func (r *Router) Submit(key uint64, ids []int) (<-chan serve.Response, error) {
	return submit[serve.Response](r, key, clsJob(ids))
}

// job is one routed request whose responses have type T. One dispatch
// and one await loop serve both request kinds; they differ only in the
// session pin, how a crashed response becomes the next dispatch, and how
// an error becomes a response.
type job[T any] interface {
	// pins reports whether the job keeps its key's session pin.
	pins() bool
	// admit offers the job to one node.
	admit(*serve.Server) (<-chan T, error)
	// resume reports whether resp is a crash's and, if so, readies the
	// next admit to continue from it.
	resume(r *Router, resp T) bool
	// fail makes the caller's response of err.
	fail(err error) T
}

// genJob is a generation. After a crash it resumes from the tokens the
// crashed node committed.
type genJob struct {
	prompt, committed []int
	maxTokens, eos    int
}

func (g *genJob) pins() bool { return true }

func (g *genJob) admit(srv *serve.Server) (<-chan serve.GenResponse, error) {
	return srv.SubmitGenResume(g.prompt, g.committed, g.maxTokens, g.eos)
}

func (g *genJob) resume(r *Router, resp serve.GenResponse) bool {
	if !errors.Is(resp.Err, serve.ErrCrashed) {
		return false
	}
	r.replayTokens.Observe(float64(len(resp.Tokens)))
	g.committed = resp.Tokens
	return true
}

func (g *genJob) fail(err error) serve.GenResponse {
	return serve.GenResponse{Err: err, Tokens: g.committed}
}

// clsJob is a classification request's token ids.
type clsJob []int

func (clsJob) pins() bool { return false }

func (c clsJob) admit(srv *serve.Server) (<-chan serve.Response, error) { return srv.Submit(c) }

func (clsJob) resume(_ *Router, resp serve.Response) bool {
	return errors.Is(resp.Err, serve.ErrCrashed)
}

func (clsJob) fail(err error) serve.Response { return serve.Response{Err: err} }

// submit dispatches j and forwards its response. A dispatch error fails
// synchronously unless backoff retries may absorb it. submit, dispatch
// and await take the job's concrete type J, not a job[T] value: an
// interface-typed parameter of a generic function makes the linker keep
// every method reachable from the types in job[T]'s method signatures
// (*Router, *serve.Server), which moves the layout of unrelated code.
func submit[T any, J job[T]](r *Router, key uint64, j J) (<-chan T, error) {
	nd, ch, err := dispatch[T](r, key, j, DecisionRoute)
	if err != nil && (r.cfg.MaxRetries <= 0 || !retryable(err)) {
		if errors.Is(err, serve.ErrQueueFull) {
			r.drops.Add(1)
		}
		return nil, err
	}
	out := make(chan T, 1)
	r.wg.Add(1)
	go await[T](r, key, j, out, nd, ch, err, time.Now())
	return out, nil
}

// retryable reports whether a dispatch error is worth a backoff retry:
// transient admission pressure (every ready node queue-full) or a
// momentarily empty ready set (crash, drain, or breaker-open window).
func retryable(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) || errors.Is(err, ErrNoReadyNodes)
}

// backoff returns the wait before backoff retry n (1-based): the base
// doubles per attempt and is scaled by ±50% jitter from the dedicated
// jitter rng (sharing the policy rng would perturb decision replay),
// capped at maxBackoff.
func (r *Router) backoff(n int) time.Duration {
	d := float64(r.cfg.RetryBackoff) * math.Pow(2, float64(n-1))
	if d > float64(maxBackoff) {
		d = float64(maxBackoff)
	}
	r.jmu.Lock()
	j := 0.5 + r.jrng.Float64()
	r.jmu.Unlock()
	return time.Duration(d * j)
}

// dispatch resolves and performs one admission of j under the router
// lock: a generation's session pin first, then policy picks with
// refusing nodes excluded, each pick recorded in the trace. Every
// successful dispatch increments the node's in-flight accounting before
// the lock releases, so a drain starting afterwards sees it.
func dispatch[T any, J job[T]](r *Router, key uint64, j J, kind string) (*Node, <-chan T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	if id, ok := r.sessions[key]; ok && j.pins() {
		nd := r.nodes[id]
		if nd.Ready() && r.breakerAllow(id, time.Now()) {
			ch, err := j.admit(nd.srv)
			switch {
			case err == nil:
				r.affinityHits.Add(1)
				r.breakerSuccess(id)
				r.commit(nd)
				return nd, ch, nil
			case errors.Is(err, serve.ErrQueueFull):
				// load-shed (or back off and come here again) rather
				// than silently migrating the session for transient
				// pressure: the pin survives, the caller sees the error
				r.breakerFailure(id, time.Now())
				return nil, nil, err
			case nd.srv.Stopped():
				// lost the race with a crash/stop: fall through to re-pin
				r.breakerFailure(id, time.Now())
			default:
				return nil, nil, err
			}
		}
		delete(r.sessions, key)
		r.affinityMisses.Add(1)
		if kind == DecisionRoute {
			kind = DecisionRepin
		}
	} else if j.pins() && kind == DecisionRoute {
		r.sessionPins.Add(1)
	}

	excluded := make(map[int]bool)
	sawFull := false
	for {
		ready, loads := r.readySet(excluded)
		if len(ready) == 0 {
			if sawFull {
				return nil, nil, serve.ErrQueueFull
			}
			return nil, nil, ErrNoReadyNodes
		}
		id := r.pol.Pick(key, ready, loads, r.rng)
		r.record(kind, key, ready, loads, id)
		nd := r.nodes[id]
		ch, err := j.admit(nd.srv)
		switch {
		case err == nil:
			if j.pins() {
				r.sessions[key] = id
			}
			r.breakerSuccess(id)
			r.commit(nd)
			return nd, ch, nil
		case errors.Is(err, serve.ErrQueueFull):
			r.breakerFailure(id, time.Now())
			sawFull = true
		case nd.srv.Stopped():
			// crashed between the ready check and admission
			r.breakerFailure(id, time.Now())
		default:
			return nil, nil, err
		}
		excluded[id] = true
	}
}

// readySet lists dispatchable nodes and their load scores: in-rotation
// health (Probe) gated by each node's circuit breaker. Caller holds
// r.mu.
func (r *Router) readySet(excluded map[int]bool) ([]int, []float64) {
	var ready []int
	var loads []float64
	now := time.Now()
	for _, nd := range r.nodes {
		if !excluded[nd.ID] && nd.Ready() && r.breakerAllow(nd.ID, now) {
			ready = append(ready, nd.ID)
			loads = append(loads, nd.Load())
		}
	}
	return ready, loads
}

// record appends one policy decision to the trace. Caller holds r.mu.
func (r *Router) record(kind string, key uint64, ready []int, loads []float64, node int) {
	r.trace = append(r.trace, Decision{
		Seq: len(r.trace), Kind: kind, Key: key,
		Ready: ready, Loads: loads, Node: node,
	})
}

// commit books one dispatch onto a node.
func (r *Router) commit(nd *Node) {
	nd.inflight.Add(1)
	nd.dispatches.Add(1)
	r.dispatches.Add(1)
}

// await forwards one request's response, intercepting crashes and
// retryable admission failures. A crashed response fails over to a
// healthy node — a generation resumes there from its committed tokens,
// teacher-forced as one chunk; queue-full and no-ready-node dispatch
// errors back off exponentially with jitter and re-pick (recorded as
// DecisionRetry) while MaxRetries and the request deadline allow. All
// transparently to the caller; exactly one send on out.
func await[T any, J job[T]](r *Router, key uint64, j J, out chan<- T, nd *Node, ch <-chan T, dispatchErr error, enq time.Time) {
	defer r.wg.Done()
	failovers, retries := 0, 0
	for {
		if dispatchErr != nil {
			if !retryable(dispatchErr) || retries >= r.cfg.MaxRetries {
				if errors.Is(dispatchErr, serve.ErrQueueFull) {
					r.drops.Add(1)
				}
				if failovers > 0 {
					dispatchErr = fmt.Errorf("cluster: failover: %w", dispatchErr)
				}
				out <- j.fail(dispatchErr)
				return
			}
			retries++
			wait := r.backoff(retries)
			if dl := r.cfg.RequestTimeout; dl > 0 && time.Since(enq)+wait > dl {
				r.deadlines.Add(1)
				out <- j.fail(fmt.Errorf("%w (key %d after %d retries: %v)", ErrDeadlineExceeded, key, retries-1, dispatchErr))
				return
			}
			r.retries.Add(1)
			time.Sleep(wait)
			nd, ch, dispatchErr = dispatch[T](r, key, j, DecisionRetry)
			continue
		}
		resp := <-ch
		nd.inflight.Add(-1)
		if failovers < r.cfg.FailoverRetries && j.resume(r, resp) {
			failovers++
			r.failovers.Add(1)
			r.noteCrash(nd.ID)
			nd, ch, dispatchErr = dispatch[T](r, key, j, DecisionFailover)
			continue
		}
		out <- resp
		return
	}
}

// noteCrash feeds a crashed response into the node's breaker: crash
// failures count toward the trip threshold like admission failures.
func (r *Router) noteCrash(id int) {
	if !r.cfg.Breaker.Enabled {
		return
	}
	r.mu.Lock()
	r.breakerFailure(id, time.Now())
	r.mu.Unlock()
}

// Drain takes node id out of rotation and blocks until its in-flight
// work has fully delivered — the quiesced window a rollout switches
// levels in. Returns the drain wall time (also recorded in the
// rt3_cluster_drain_ms histogram).
func (r *Router) Drain(id int) (time.Duration, error) {
	nd, err := r.node(id)
	if err != nil {
		return 0, err
	}
	if !nd.StartDrain() {
		return 0, fmt.Errorf("cluster: node %d is %s, not active", id, nd.State())
	}
	t0 := time.Now()
	if !nd.AwaitDrained() {
		return 0, fmt.Errorf("cluster: node %d drain aborted (now %s)", id, nd.State())
	}
	d := time.Since(t0)
	r.drainMS.Observe(float64(d.Microseconds()) / 1000)
	return d, nil
}

// Crash kills node id mid-flight (simulated failure). Its in-flight
// generations surface as crashed responses that the await loop fails
// over to the surviving nodes. Errors when the node is already down.
func (r *Router) Crash(id int) error {
	nd, err := r.node(id)
	if err != nil {
		return err
	}
	if !nd.Crash() {
		return fmt.Errorf("cluster: node %d is already down", id)
	}
	return nil
}

// SwitchNode moves one node to the given V/F level through the safe
// window: drain → switch → restore. On a switch error the node is
// restored at its old level before the error returns — the rollback
// path the chaos failed-switch fault exercises.
func (r *Router) SwitchNode(id, level int) error {
	nd, err := r.node(id)
	if err != nil {
		return err
	}
	if _, err := r.Drain(id); err != nil {
		return err
	}
	if _, err := nd.srv.SwitchTo(level); err != nil {
		nd.Restore()
		return fmt.Errorf("cluster: switch on node %d: %w", id, err)
	}
	nd.Restore()
	return nil
}

// RolloutSwitch performs a zero-downtime sweep to the given V/F level:
// node by node, drain → switch → restore, so at every moment the rest
// of the fleet serves traffic and no generation ever spans a level
// switch on its node (which is what keeps every response dense-
// verifiable at a single level). Down nodes are skipped. On a switch
// error the node is restored at its old level and the sweep aborts.
func (r *Router) RolloutSwitch(level int) error {
	for _, nd := range r.nodes {
		if nd.State() == Down {
			continue
		}
		if err := r.SwitchNode(nd.ID, level); err != nil {
			return err
		}
	}
	r.rollouts.Add(1)
	return nil
}

// Stop gracefully stops every node (queued and in-flight work runs to
// completion) and waits for all response forwarding to finish.
func (r *Router) Stop() {
	for _, nd := range r.nodes {
		nd.Stop()
	}
	r.wg.Wait()
}

// node resolves a member by ID.
func (r *Router) node(id int) (*Node, error) {
	if id < 0 || id >= len(r.nodes) {
		return nil, fmt.Errorf("cluster: node %d out of range %d", id, len(r.nodes))
	}
	return r.nodes[id], nil
}

// registerMetrics builds the rt3_cluster_* families: cluster-level
// gauges and counters, per-node gauges labeled node="<id>", and the
// failover/drain histograms. Per-node series read the live node state
// at gather time (the same read-callback discipline the engine uses).
func (r *Router) registerMetrics() {
	reg := obs.NewRegistry()
	r.reg = reg
	reg.GaugeFunc("rt3_cluster_nodes", "Cluster member count.",
		func() float64 { return float64(len(r.nodes)) })
	reg.GaugeFunc("rt3_cluster_ready_nodes", "Members currently accepting traffic.",
		func() float64 { return float64(r.ReadyNodes()) })
	reg.CounterFunc("rt3_cluster_affinity_hits_total",
		"Dispatches served by the session's pinned node.",
		func() float64 { return float64(r.affinityHits.Load()) })
	reg.CounterFunc("rt3_cluster_affinity_misses_total",
		"Forced session re-pins (pinned node left rotation or refused).",
		func() float64 { return float64(r.affinityMisses.Load()) })
	reg.CounterFunc("rt3_cluster_session_pins_total",
		"First-time session placements.",
		func() float64 { return float64(r.sessionPins.Load()) })
	reg.CounterFunc("rt3_cluster_failovers_total",
		"Crashed requests re-dispatched onto healthy nodes.",
		func() float64 { return float64(r.failovers.Load()) })
	reg.CounterFunc("rt3_cluster_dropped_total",
		"Requests shed with ErrQueueFull.",
		func() float64 { return float64(r.drops.Load()) })
	reg.CounterFunc("rt3_cluster_rollouts_total",
		"Completed zero-downtime rollout sweeps.",
		func() float64 { return float64(r.rollouts.Load()) })
	reg.CounterFunc("rt3_router_retries_total",
		"Backoff re-dispatches after retryable admission failures.",
		func() float64 { return float64(r.retries.Load()) })
	reg.CounterFunc("rt3_router_deadline_exceeded_total",
		"Requests failed on their per-request deadline while retrying.",
		func() float64 { return float64(r.deadlines.Load()) })
	reg.CounterFunc("rt3_breaker_trips_total",
		"Circuit-breaker opens (closed or half-open to open).",
		func() float64 { return float64(r.breakerTrips.Load()) })
	r.replayTokens = reg.Histogram("rt3_cluster_failover_replay_tokens",
		"Committed tokens re-fed as one chunk per generation failover.", obs.HistogramOpts{MinDecade: 0, Decades: 4, PerDecade: 9})
	r.drainMS = reg.Histogram("rt3_cluster_drain_ms",
		"Wall time to quiesce one node for maintenance.", obs.HistogramOpts{})
	for _, nd := range r.nodes {
		nd := nd
		l := obs.L("node", strconv.Itoa(nd.ID))
		reg.GaugeFunc("rt3_cluster_node_state",
			"Node lifecycle state (0 cold, 1 active, 2 draining, 3 drained, 4 down).",
			func() float64 { return float64(nd.State()) }, l)
		reg.GaugeFunc("rt3_cluster_node_inflight",
			"Router-dispatched requests awaiting their response.",
			func() float64 { return float64(nd.Inflight()) }, l)
		reg.GaugeFunc("rt3_cluster_node_queue_depth",
			"Admitted-but-unserved requests on the node.",
			func() float64 { return float64(nd.srv.Status().QueueDepth) }, l)
		reg.GaugeFunc("rt3_cluster_node_level",
			"Node's active V/F level index.",
			func() float64 { return float64(nd.srv.Engine().Level()) }, l)
		reg.GaugeFunc("rt3_cluster_node_battery_fraction",
			"Node's simulated state of charge (1 when disabled).",
			func() float64 { return nd.srv.BatteryFraction() }, l)
		reg.CounterFunc("rt3_cluster_dispatches_total",
			"Requests routed to the node.",
			func() float64 { return float64(nd.Dispatches()) }, l)
		reg.GaugeFunc("rt3_breaker_state",
			"Node's circuit-breaker state (0 closed, 1 open, 2 half-open).",
			func() float64 { return float64(r.NodeBreakerState(nd.ID)) }, l)
	}
}
