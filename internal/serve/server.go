package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rt3/internal/dvfs"
	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/obs"
	"rt3/internal/spec"
)

// Admission and lifecycle errors.
var (
	ErrQueueFull     = errors.New("serve: request queue full")
	ErrStopped       = errors.New("serve: server stopped")
	ErrCrashed       = errors.New("serve: server crashed")
	ErrEmptyRequest  = errors.New("serve: empty token sequence")
	ErrNotGenerating = errors.New("serve: SubmitGen requires Config.Generate")
	ErrBadSplit      = errors.New("serve: GenOpts.SplitAt must cut the prompt into non-empty prefix and suffix")
	ErrBadToken      = errors.New("serve: token id outside the model's vocabulary")
	ErrBadBudget     = errors.New("serve: token budget above Config.MaxGenTokens")
)

// Config tunes the server. Zero values pick the documented defaults.
type Config struct {
	// MaxBatch bounds one step of a replica's loop (default 8): at most
	// this many classification requests ride one fused forward pass, and
	// at most this many generations hold decode slots at once.
	MaxBatch int
	// QueueCap bounds admitted-but-unserved requests (default 1024);
	// Submit fails fast with ErrQueueFull beyond it.
	QueueCap int

	// Generate admits generation requests (SubmitGen and friends, which
	// fail with ErrNotGenerating without it) and requires replicas
	// implementing DecodeModel (e.g. transformer.LMModel); New panics on
	// an engine without decode. Every server runs the same per-replica
	// step loop: each pass admits queued generations into free decode
	// slots (prefill as one fused packed pass, then one token per fused
	// step), evicts on EOS or token budget, and executes up to MaxBatch
	// queued classification requests as one fused forward pass, so one
	// loop carries classify+generate traffic.
	Generate bool
	// MaxGenTokens is the per-request token budget: a request that sets
	// no budget gets it, and one that asks for more fails at admission
	// with ErrBadBudget (default 32). A resumed prefix counts toward it.
	MaxGenTokens int

	// PrefixCacheRows enables the cross-request prefix KV cache for split
	// generation requests (GenOpts.SplitAt): each cached split prefix
	// holds its own rows, and a hit teacher-forces only the suffix. > 0
	// bounds the cached K/V rows (coldest prefix evicted first), < 0 is
	// unbounded, 0 disables the cache (split requests still compute
	// prefix+suffix, just without sharing).
	PrefixCacheRows int

	// Policy, when set, is consulted every control tick (10ms) with the
	// current Status; a differing decision triggers a live level switch.
	Policy Policy
	// TargetMS is the latency objective the autotuner's reward reads.
	TargetMS float64

	// Autotune, when set, runs the closed-loop RL/DVFS controller
	// instead of the Policy: every control tick it samples the
	// sliding telemetry window, quantizes it into the rl state space,
	// queries the controller policy epsilon-greedily, learns online from
	// the observed reward, and drives hot pattern-set/V/F switches
	// through the drain path — recording an auditable decision trace
	// (see Autotuner). Supersedes Policy when both are set.
	Autotune *AutotuneConfig

	// Trace configures request-scoped tracing. The zero value enables
	// capture with the obs defaults (free-listed span buffers, sampled
	// decode steps, a 256-trace ring); set Trace.Disabled to opt out.
	// Traces record queue wait, batch formation, prefill, sampled decode
	// steps, and any switch/drain stall the request overlapped, and are
	// exported via Server.Tracer (JSONL or Chrome trace_event).
	Trace obs.TracerConfig

	// OnAutotuneDecision, when set, is invoked from the control loop
	// after every control tick with the decision as applied (Switched and
	// SwitchCostMS filled in). Callers use it to stream decision lines
	// through a logger; the callback runs on the control loop goroutine
	// and must not block.
	OnAutotuneDecision func(AutotuneDecision)

	// StepFloor, when > 0, is the modeled minimum wall time of one fused
	// execution (a batch forward, a prefill pass, or a decode step): the
	// worker idles out the remainder after running at host speed. Where
	// SimDVFS stretches execution relative to the host, StepFloor pins an
	// absolute per-step cost, making a replica's serving capacity a
	// deterministic function of configuration instead of host speed — the
	// knob the cluster scaling benchmarks rely on to show node counts,
	// not host cores, as the capacity axis.
	StepFloor time.Duration

	// SimDVFS, when true, simulates the active V/F level's frequency in
	// wall-clock execution: after every fused forward pass (and prefill
	// or decode step in generation mode) the worker idles the remaining
	// modeled time, stretching execution by f_fastest/f_level. On host
	// hardware the packed kernels run orders of magnitude faster than
	// the modeled mobile core, so without this a slower level changes
	// energy accounting but never observable latency; with it, slow
	// levels build real queue pressure under load — the latency/energy
	// trade the closed-loop autotuner navigates.
	SimDVFS bool

	// BatteryJ, when > 0, enables the simulated battery: every request
	// drains the modeled inference energy of the active level, so a
	// battery-aware policy sees charge fall under load.
	BatteryJ float64
	// Power is the V/F power model (default dvfs.DefaultPowerModel).
	Power dvfs.PowerModel
	// CyclesPerInference is the modeled per-request work used for energy
	// accounting (default 2e6 cycles).
	CyclesPerInference float64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.MaxGenTokens <= 0 {
		c.MaxGenTokens = 32
	}
	if c.Power == (dvfs.PowerModel{}) {
		c.Power = dvfs.DefaultPowerModel()
	}
	if c.CyclesPerInference <= 0 {
		c.CyclesPerInference = 2e6
	}
	return c
}

// Response is the answer to one request.
type Response struct {
	// Err is non-nil when the request was abandoned (the server was
	// stopped before ever starting); all other fields are then zero.
	Err error
	// Out is the model output (e.g. 1 x Classes logits).
	Out *mat.Matrix
	// Level is the V/F level index the request executed at.
	Level int
	// QueueMS is time from admission to batch dispatch, per request.
	// ExecMS is the packed forward pass's execution time, shared by every
	// request in the batch (the batch runs as one fused forward).
	// TotalMS = QueueMS + ExecMS, admission to completion.
	QueueMS, ExecMS, TotalMS float64
	// BatchSize is the size of the batch the request rode in.
	BatchSize int
}

type request struct {
	ids  []int
	enq  time.Time
	resp chan Response
	tr   *obs.Trace // nil when tracing is disabled
}

// Status is the server state snapshot handed to the level policy.
type Status struct {
	Level           int
	QueueDepth      int
	BatteryFraction float64 // 1 when energy accounting is disabled
}

// Server is the batched, reconfiguration-aware inference frontend:
// bounded request queues feed one step loop per engine replica, which
// executes fused batches through the packed kernels; SwitchTo drains
// in-flight steps, swaps the active pattern set and V/F level on the
// engine, and charges the modeled reconfiguration cost.
type Server struct {
	cfg    Config
	eng    *Engine
	rec    *Recorder
	reg    *obs.Registry
	tracer *obs.Tracer // nil when Config.Trace.Disabled
	tuner  *Autotuner  // non-nil when Config.Autotune is set

	// prefixCache is the cross-request prefix KV cache, shared by
	// every worker (nil unless Config.PrefixCacheRows != 0).
	prefixCache *spec.Radix

	batMu   sync.Mutex
	battery *dvfs.Battery // guarded by batMu

	// slowdown is the transient straggler factor (>= 1) chaos injection
	// applies to every fused execution's modeled duration, stored as
	// math.Float64bits for lock-free reads on the step path (0 ≡ 1,
	// unset).
	slowdown atomic.Uint64

	in    chan *request
	genIn chan *genReq

	// execMu is read-held by workers for the duration of one step and
	// write-held across a switch: taking the write lock IS the drain.
	execMu sync.RWMutex

	stateMu sync.RWMutex
	started bool
	stopped bool

	done chan struct{}
	// kill is closed by Kill (simulated crash): workers abort in-flight
	// work with ErrCrashed instead of completing it.
	kill chan struct{}
	wg   sync.WaitGroup
}

// New builds a server over a deployed engine. A Generate configuration
// requires the engine's replicas to support incremental decoding.
func New(eng *Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Generate && !eng.SupportsDecode() {
		panic("serve: Config.Generate requires model replicas implementing DecodeModel (e.g. transformer.LMModel)")
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:    cfg,
		eng:    eng,
		rec:    NewRecorderOn(reg, eng.bundle.LevelNames),
		reg:    reg,
		tracer: obs.NewTracer(cfg.Trace),
		in:     make(chan *request, cfg.QueueCap),
		genIn:  make(chan *genReq, cfg.QueueCap),
		done:   make(chan struct{}),
		kill:   make(chan struct{}),
	}
	if cfg.BatteryJ > 0 {
		s.battery = dvfs.NewBattery(cfg.BatteryJ)
	}
	if cfg.PrefixCacheRows != 0 {
		capRows := cfg.PrefixCacheRows
		if capRows < 0 {
			capRows = 0 // spec.NewRadix: <= 0 is unbounded
		}
		s.prefixCache = spec.NewRadix(capRows)
		s.prefixCache.RegisterMetrics(reg)
	}
	if cfg.Autotune != nil {
		tuner, err := NewAutotuner(eng.Levels(), cfg.Power, cfg.CyclesPerInference, *cfg.Autotune)
		if err != nil {
			panic("serve: " + err.Error())
		}
		s.tuner = tuner
		tuner.RegisterMetrics(reg)
	}
	eng.RegisterMetrics(reg)
	kernel.RegisterMetrics(reg)
	s.tracer.RegisterMetrics(reg)
	reg.GaugeFunc("rt3_queue_depth", "Admitted-but-unserved requests.",
		func() float64 { return float64(len(s.in) + len(s.genIn)) })
	reg.GaugeFunc("rt3_battery_fraction", "Simulated state of charge (1 when disabled).",
		s.BatteryFraction)
	return s
}

// Recorder exposes the server's observation sink.
func (s *Server) Recorder() *Recorder { return s.rec }

// Metrics exposes the server's metrics registry — every instrument the
// recorder, engine, reconfigurator, tracer and autotuner register. The
// admin endpoint serves it as /metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Tracer exposes the server's request tracer (nil when tracing is
// disabled); its ring holds the most recent finished request traces.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Engine exposes the underlying execution engine.
func (s *Server) Engine() *Engine { return s.eng }

// PrefixCacheStats snapshots the prefix cache counters; ok is
// false when the cache is disabled.
func (s *Server) PrefixCacheStats() (st spec.RadixStats, ok bool) {
	if s.prefixCache == nil {
		return spec.RadixStats{}, false
	}
	return s.prefixCache.Stats(), true
}

// Start launches one step loop per engine replica and, when a policy or
// the closed-loop autotuner is configured, the control loop.
func (s *Server) Start() {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	for i := 0; i < s.eng.Replicas(); i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if s.tuner != nil || s.cfg.Policy != nil {
		s.wg.Add(1)
		go s.controlLoop()
	}
}

// Submit admits one request and returns the channel its response will
// arrive on (buffered; exactly one send). It fails fast with
// ErrEmptyRequest for a zero-length sequence (the packed batch forward
// has no representation for it), ErrBadToken for an id outside the
// model's vocabulary, ErrQueueFull when the queue is at capacity, and
// ErrStopped after Stop. The step loops serve it between fused decode
// steps (mixed classify+generate traffic).
func (s *Server) Submit(ids []int) (<-chan Response, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyRequest
	}
	if err := s.checkTokens(ids); err != nil {
		return nil, err
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.stopped {
		return nil, ErrStopped
	}
	r := &request{ids: ids, enq: time.Now(), resp: make(chan Response, 1)}
	r.tr = s.tracer.StartAt("request", r.enq)
	select {
	case s.in <- r:
		return r.resp, nil
	default:
		s.tracer.Abort(r.tr)
		s.rec.ObserveDrop()
		return nil, ErrQueueFull
	}
}

// checkTokens returns ErrBadToken unless every id indexes the model's
// embedding table: the model panics on any other, inside a worker
// goroutine, which would take every in-flight request down with it.
func (s *Server) checkTokens(ids []int) error {
	vocab := s.eng.VocabSize()
	for _, id := range ids {
		if id < 0 || id >= vocab {
			return fmt.Errorf("%w: id %d, vocabulary %d", ErrBadToken, id, vocab)
		}
	}
	return nil
}

// Stop closes admission, drains every queued request through the
// workers — queued and in-flight generations run to completion — and
// blocks until all goroutines exit. Pending responses are delivered; on
// a server that was never started, queued requests receive a response
// with Err == ErrStopped instead of an answer.
func (s *Server) Stop() { s.shutdown(false) }

// Kill simulates a node crash: admission closes immediately and, unlike
// Stop, in-flight work is abandoned rather than finished. Queued
// requests receive ErrCrashed; in-flight generations are aborted at the
// next fused-step boundary, their responses carrying ErrCrashed plus the
// tokens generated so far — the committed prefix a cluster router
// resumes on another node via SubmitGenResume.
// Every response channel still receives exactly one send, and all
// goroutines exit before Kill returns.
func (s *Server) Kill() { s.shutdown(true) }

// shutdown is the body of Stop (crash false) and Kill (crash true).
func (s *Server) shutdown(crash bool) {
	s.stateMu.Lock()
	if s.stopped {
		s.stateMu.Unlock()
		return
	}
	s.stopped = true
	started := s.started
	err := ErrStopped
	if crash {
		err = ErrCrashed
		close(s.kill)
	}
	close(s.in)
	close(s.genIn)
	close(s.done)
	s.stateMu.Unlock()
	if started {
		s.wg.Wait()
		return
	}
	for r := range s.in {
		s.tracer.Abort(r.tr)
		r.resp <- Response{Err: err}
	}
	for r := range s.genIn {
		s.tracer.Abort(r.tr)
		r.resp <- GenResponse{Err: err}
	}
}

// killed reports whether Kill has been called (workers poll it at
// step boundaries — a crash aborts between fused executions, never
// inside one).
func (s *Server) killed() bool {
	select {
	case <-s.kill:
		return true
	default:
		return false
	}
}

// Stopped reports whether admission is closed (Stop or Kill was called).
// Readiness probes consult it: a stopping node must leave rotation even
// while its in-flight work drains.
func (s *Server) Stopped() bool {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	return s.stopped
}

// Status snapshots the signals a level policy decides on.
func (s *Server) Status() Status {
	return Status{
		Level:           s.eng.Level(),
		QueueDepth:      len(s.in) + len(s.genIn),
		BatteryFraction: s.BatteryFraction(),
	}
}

// BatteryFraction returns the simulated state of charge (1 if disabled).
func (s *Server) BatteryFraction() float64 {
	if s.battery == nil {
		return 1
	}
	s.batMu.Lock()
	defer s.batMu.Unlock()
	return s.battery.Fraction()
}

// CollapseBattery forces the simulated battery to the given fraction of
// its capacity (clamped to [0, 1]) — the chaos injector's battery-
// collapse fault. At fraction 0 the node's readiness probe fails on the
// next check and a cluster router routes around it; in-flight work
// still completes (energy drains floor at empty, they never error).
// Reports whether a battery was configured.
func (s *Server) CollapseBattery(frac float64) bool {
	if s.battery == nil {
		return false
	}
	frac = math.Max(0, math.Min(1, frac))
	s.batMu.Lock()
	defer s.batMu.Unlock()
	s.battery.Remaining = s.battery.Capacity * frac
	return true
}

// SetSlowdown sets the straggler factor f applied to every fused
// execution: the worker idles until f times the modeled (or, absent a
// model, measured) duration has elapsed — a transient per-node
// slowdown under chaos injection. f <= 1 clears it.
func (s *Server) SetSlowdown(f float64) {
	if f <= 1 {
		s.slowdown.Store(0)
		return
	}
	s.slowdown.Store(math.Float64bits(f))
}

// Slowdown returns the active straggler factor (1 when unset).
func (s *Server) Slowdown() float64 {
	b := s.slowdown.Load()
	if b == 0 {
		return 1
	}
	return math.Float64frombits(b)
}

// SwitchTo performs a guarded live reconfiguration to level idx: it
// blocks new step execution, waits for in-flight steps to drain,
// swaps the engine's pattern set, and records the modeled swap cost plus
// the measured kernel-install time. Requests keep queuing throughout —
// none are dropped by a switch.
func (s *Server) SwitchTo(idx int) (float64, error) {
	if idx < 0 || idx >= s.eng.NumLevels() {
		return 0, fmt.Errorf("serve: level %d out of range %d", idx, s.eng.NumLevels())
	}
	s.execMu.Lock()
	defer s.execMu.Unlock()
	if idx == s.eng.Level() {
		return 0, nil
	}
	t0 := time.Now()
	cost, err := s.eng.SwitchTo(idx)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	s.tracer.ObserveSwitch(wall)
	s.rec.ObserveSwitch(cost, float64(wall.Microseconds())/1000)
	return cost, nil
}

// DenseReference computes the masked dense output for level idx on the
// quiesced engine — the ground truth for verifying served responses.
func (s *Server) DenseReference(idx int, ids []int) (*mat.Matrix, error) {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.eng.DenseForward(idx, ids)
}

// DenseGenReference greedily decodes the masked dense reference
// generation for level idx on the quiesced engine — the ground truth a
// generation served entirely at that level must match token-for-token.
// maxTokens follows SubmitGen (<= 0 picks Config.MaxGenTokens, above it
// fails with ErrBadBudget), so the reference sees the budget the served
// request actually ran under.
func (s *Server) DenseGenReference(idx int, prompt []int, maxTokens, eos int) ([]int, error) {
	return s.denseGenerate(idx, prompt, nil, maxTokens, eos)
}

// DenseGenReferenceSplit greedily decodes the masked dense reference
// for a split request at level idx on the quiesced engine — the ground
// truth a split generation (prefix-cached or not) must match
// token-for-token. maxTokens follows SubmitGen.
func (s *Server) DenseGenReferenceSplit(idx int, prefix, suffix []int, maxTokens, eos int) ([]int, error) {
	return s.denseGenerate(idx, prefix, suffix, maxTokens, eos)
}

// denseGenerate resolves the budget and runs Engine.DenseGenerate with
// the engine quiesced.
func (s *Server) denseGenerate(idx int, prefix, suffix []int, maxTokens, eos int) ([]int, error) {
	maxTokens, err := s.genBudget(maxTokens)
	if err != nil {
		return nil, err
	}
	s.execMu.Lock()
	defer s.execMu.Unlock()
	return s.eng.DenseGenerate(idx, prefix, suffix, maxTokens, eos)
}

// classifyBatch executes one classification batch as a single fused
// forward pass and delivers the per-request responses (the step loop
// runs it between fused decode steps). Called with execMu read-held; ids
// is the caller's reusable scratch.
func (s *Server) classifyBatch(replica, level int, batch []*request, ids *[][]int) {
	*ids = (*ids)[:0]
	for _, r := range batch {
		*ids = append(*ids, r.ids)
	}
	dispatch := time.Now()
	outs := s.eng.ForwardBatch(replica, *ids)
	s.simDVFSDelay(level, dispatch)
	done := time.Now()
	execMS := float64(done.Sub(dispatch).Microseconds()) / 1000
	fill := float64(len(batch)) / float64(s.cfg.MaxBatch)
	gemms := float64(s.eng.PrunableLinearCount())
	s.rec.ObserveBatch(len(batch), s.cfg.MaxBatch)
	for i, r := range batch {
		queueMS := float64(dispatch.Sub(r.enq).Microseconds()) / 1000
		r.tr.Add("queue", r.enq, dispatch.Sub(r.enq), "batch", float64(len(batch)), "", 0)
		r.tr.Add("batch_form", dispatch, 0, "fill", fill, "fused_gemms", gemms)
		r.tr.Add("exec", dispatch, done.Sub(dispatch), "level", float64(level), "batch", float64(len(batch)))
		s.tracer.Finish(r.tr)
		s.rec.Observe(level, queueMS, execMS)
		s.drainEnergy(level, 1)
		// delivered last: a client that holds its response finds it
		// traced and recorded
		r.resp <- Response{
			Out:       outs[i],
			Level:     level,
			QueueMS:   queueMS,
			ExecMS:    execMS,
			TotalMS:   queueMS + execMS,
			BatchSize: len(batch),
		}
	}
}

// simDVFSDelay stretches the fused execution that started at t0 to its
// modeled duration (a no-op unless Config.SimDVFS, Config.StepFloor, or
// a chaos slowdown is set): having run the work at host speed, the
// worker idles until the larger of f_fastest/f_level times the measured
// time (SimDVFS) and the absolute StepFloor has elapsed, the whole
// target scaled by the active straggler factor. Called with execMu
// read-held, so the stretched execution drains like real execution.
func (s *Server) simDVFSDelay(level int, t0 time.Time) {
	target := s.cfg.StepFloor
	if s.cfg.SimDVFS {
		levels := s.eng.Levels()
		if factor := levels[0].FreqMHz / levels[level].FreqMHz; factor > 1 {
			if t := time.Duration(float64(time.Since(t0)) * factor); t > target {
				target = t
			}
		}
	}
	if f := s.Slowdown(); f > 1 {
		if target <= 0 {
			target = time.Since(t0)
		}
		target = time.Duration(float64(target) * f)
	}
	if target <= 0 {
		return
	}
	if d := target - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
}

// drainEnergy charges the modeled inference energy of n units of work
// at the given level against the simulated battery: one per request in
// classification mode, one per generated token in generation mode.
func (s *Server) drainEnergy(level, n int) {
	if s.battery == nil {
		return
	}
	e := s.cfg.Power.InferenceEnergy(s.eng.Levels()[level], s.cfg.CyclesPerInference) * float64(n)
	s.batMu.Lock()
	defer s.batMu.Unlock()
	if !s.battery.Drain(e) {
		s.battery.Remaining = 0
	}
}
