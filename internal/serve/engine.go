// Package serve is the online half of the RT3 story: a concurrent,
// batched inference server whose execution engine runs Transformer
// forward passes through packed sparse kernels and can be
// hot-reconfigured — swapping the active pattern set and V/F level in
// place, with in-flight batches drained first and the switch cost
// charged through the rtswitch cost model. One level controller, the
// Autotuner — the closed-loop RL/DVFS policy or, in governor mode, the
// battery governor's fixed rule — drives level selection from observed
// queue depth, latency and simulated battery state,
// exercising the paper's core claim (cheap pattern-set swaps enable live
// reconfiguration) under load rather than in a scripted battery
// simulation.
package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"rt3/internal/deploy"
	"rt3/internal/dvfs"
	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/nn"
	"rt3/internal/obs"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/transformer"
)

// Model is the inference surface the engine executes, with the prunable
// projection layers exposed so packed kernels can be installed and
// activation buffers preallocated. Both transformer.Classifier and
// transformer.LMModel satisfy it.
type Model interface {
	// Forward runs one sequence (a one-sequence shim over ForwardBatch).
	Forward(ids []int) *mat.Matrix
	// ForwardBatch runs a whole dynamic batch as one packed forward pass
	// — per layer, one fused kernel product over all ΣL packed rows —
	// returning one output per sequence, each bit-identical to Forward on
	// that sequence alone. The returned matrices may be views into
	// reusable packed buffers; the engine copies them at its boundary.
	ForwardBatch(seqs [][]int) []*mat.Matrix
	PrunableLinears() []*nn.Linear
	// UnprunedLinears lists the serving-path linears no level prunes (the
	// output projection, the classification head). The engine runs them
	// through the pattern kernel too, with every weight kept, and no level
	// switch touches it.
	UnprunedLinears() []*nn.Linear
	// Params lists every parameter. A replica only serves: the engine
	// drops any gradient a training pass left on one (a fresh model
	// holds none).
	Params() []*nn.Parameter
	// VocabSize bounds the token ids the model accepts, [0, VocabSize());
	// the server rejects anything else at admission, because the model
	// panics on it.
	VocabSize() int
	// SetBufferReuse toggles preallocated activation buffers; the engine
	// turns it on so steady-state forward passes skip per-layer output
	// allocations (outputs are copied at the engine boundary).
	SetBufferReuse(on bool)
}

// EngineConfig selects how the engine executes packed levels.
type EngineConfig struct {
	// Format names the execution format built from the kernel registry
	// for every (level, layer) pair. Default "pattern" — the RT3 serving
	// format; every registered format (kernel.Formats) executes the same
	// pattern-masked weights.
	Format string
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Format == "" {
		c.Format = "pattern"
	}
	return c
}

// Engine owns a deployed bundle at run time: the dense backbone, one
// kernel set per V/F level it has served, and one model replica per worker.
// The backbone is in memory once: every replica's prunable weights are
// the bundle's matrices, and replicas share the read-only packed kernels
// but keep private layer caches and activation buffers, so workers can
// run forward passes concurrently.
type Engine struct {
	bundle *deploy.Bundle
	cfg    EngineConfig
	// levels[i] is section i's V/F operating point, resolved by name
	// against Table I; switchMS[i] is the modeled cost of swapping its
	// pattern set in, priced on the section's serialized size.
	levels   []dvfs.Level
	switchMS []float64

	replicas []Model
	// weights[j] is the dense backbone matrix feeding prunable linear j
	// (same order as Model.PrunableLinears).
	weights []*mat.Matrix
	// kernels[level][j] is the execution kernel every replica installs
	// for linear j at level, built from the kernel registry per
	// EngineConfig the first time the engine serves that level (nil
	// until then) and kept. Packed weights are read-only, so replicas
	// share them and run forward passes concurrently.
	kernels [][]kernel.Kernel
	// unpruned[i] is the all-kept pattern kernel every replica installs
	// for its i-th unpruned linear (Model.UnprunedLinears order):
	// level-independent, installed at construction and lifted only while
	// a dense reference runs.
	unpruned []kernel.Kernel
	// buildSeconds is the wall time NewEngineConfigured took;
	// levelBuild[level] is the nanoseconds spent building that level's
	// kernels, 0 until it is built (atomic: a switch writes it while
	// /metrics may read it).
	buildSeconds float64
	levelBuild   []atomic.Int64

	// level is the active level index, atomic because monitoring code
	// may call Level concurrently with a switch.
	level atomic.Int32
	// fault is the one-shot switch fault InjectSwitchError arms, atomic
	// because a chaos injector arms it from its own goroutine.
	fault atomic.Pointer[error]

	// batched-execution counters (atomic: workers update them
	// concurrently, monitoring reads them live).
	batchCount atomic.Int64 // ForwardBatch calls (fused forward passes)
	batchSeqs  atomic.Int64 // sequences executed through ForwardBatch
	batchRows  atomic.Int64 // packed rows (ΣL) executed through ForwardBatch

	// decModels[r] is replica r as a DecodeModel, nil when the model has
	// no incremental-decoding surface.
	decModels []DecodeModel

	// incremental-decoding counters (atomic, same discipline as above).
	decStates      atomic.Int64 // DecodeStates built (free-list reuse keeps this at the slot count)
	decPrefills    atomic.Int64 // PrefillBatch calls
	decPrefillSeq  atomic.Int64 // sequences prefilled
	decPrefillRows atomic.Int64 // packed prompt rows prefilled
	decSteps       atomic.Int64 // DecodeBatch calls (fused decode steps)
	decTokens      atomic.Int64 // tokens decoded through DecodeBatch
	decCachedRows  atomic.Int64 // cache hits: K/V rows read from caches instead of recomputed
	decChunks      atomic.Int64 // DecodeChunkBatch calls (fused multi-row teacher-force passes)
	decChunkRows   atomic.Int64 // rows executed through DecodeChunkBatch
}

// DecodeModel is the incremental-decoding surface of a Model: prompt
// prefill seeding per-sequence KV caches (returning one row of logits
// per sequence, its last position's), and one-token-per-sequence decode
// steps against them. transformer.LMModel satisfies it.
type DecodeModel interface {
	Model
	NewDecodeState() *transformer.DecodeState
	Prefill(states []*transformer.DecodeState, prompts [][]int) []*mat.Matrix
	DecodeStep(states []*transformer.DecodeState, tokens []int) *mat.Matrix
	DecodeChunk(states []*transformer.DecodeState, chunks [][]int) []*mat.Matrix
}

// DecodeStats reports cumulative incremental-decoding execution. Every
// CachedRows entry is a projected K/V row read straight from a cache —
// work the full-recompute path would redo for every generated token, so
// CachedRows/Tokens is the mean prefix length the cache saves per step.
type DecodeStats struct {
	States      int64 // decode states built (slot count when the free-list recycles)
	Prefills    int64 // fused prompt prefill passes
	PrefillSeq  int64 // sequences admitted through prefill
	PrefillRows int64 // packed prompt rows executed through prefill
	Steps       int64 // fused decode steps
	Tokens      int64 // tokens decoded
	CachedRows  int64 // prefix rows served from cache, per sequence per step
	Chunks      int64 // fused multi-row chunk passes (suffix teacher-force)
	ChunkRows   int64 // rows executed through chunk passes
}

// BatchStats reports cumulative batched execution: fused forward passes,
// sequences served through them, and total packed rows. Because every
// prunable projection issues one kernel product per forward pass, a
// fused pass over n sequences replaces n-1 per-sequence GEMM sweeps —
// the fused-GEMM saving surfaced by cmd/rt3serve.
func (e *Engine) BatchStats() (batches, seqs, rows int64) {
	return e.batchCount.Load(), e.batchSeqs.Load(), e.batchRows.Load()
}

// PrunableLinearCount returns the number of packed kernel products one
// forward pass issues (the prunable projections; the dense output head
// is excluded).
func (e *Engine) PrunableLinearCount() int { return len(e.weights) }

// NewEngineConfigured deploys a bundle onto the given model replicas:
// every replica's prunable projections point at the bundle's backbone
// matrices (one copy in memory, never written), any gradient a training
// pass left on a replica parameter is dropped, the first (fastest)
// level's kernels are built through the kernel registry and activated
// (SwitchTo builds any other level on its first switch), each unpruned
// linear gets one pattern kernel that keeps every weight, shared by
// every replica, and activation-buffer reuse is enabled on every
// replica.
// All replicas must be clones of the same checkpoint, and from here on
// serve only: every linear now reads packed copies of its weights, and
// Backward refuses to run on them.
func NewEngineConfigured(bundle *deploy.Bundle, replicas []Model, costs rtswitch.SwitchCostModel, cfg EngineConfig) (*Engine, error) {
	t0 := time.Now()
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: need at least one model replica")
	}
	if err := bundle.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{bundle: bundle, cfg: cfg.withDefaults(), replicas: replicas}
	for i, name := range bundle.LevelNames {
		lvl, err := dvfs.LevelByName(name)
		if err != nil {
			return nil, err
		}
		setBytes, err := bundle.SetBytes(i)
		if err != nil {
			return nil, err
		}
		e.levels = append(e.levels, lvl)
		e.switchMS = append(e.switchMS, costs.PatternSwitchMS(setBytes))
	}
	e.decModels = make([]DecodeModel, len(replicas))
	for i, r := range replicas {
		if dm, ok := r.(DecodeModel); ok {
			e.decModels[i] = dm
		}
	}

	lins := replicas[0].PrunableLinears()
	if len(lins) == 0 {
		return nil, fmt.Errorf("serve: model has no prunable linears")
	}
	for _, l := range lins {
		wm, err := bundle.WeightByName(l.W.Name)
		if err != nil {
			return nil, err
		}
		if wm.Rows != l.In || wm.Cols != l.Out {
			return nil, fmt.Errorf("serve: weight %s is %dx%d, layer wants %dx%d",
				wm.Name, wm.Rows, wm.Cols, l.In, l.Out)
		}
		e.weights = append(e.weights, mat.FromSlice(wm.Rows, wm.Cols, wm.Data))
	}
	for ri, r := range e.replicas {
		rl := r.PrunableLinears()
		if len(rl) != len(lins) {
			return nil, fmt.Errorf("serve: replica %d has %d prunable linears, want %d", ri, len(rl), len(lins))
		}
		for j, l := range rl {
			if l.W.Name != lins[j].W.Name {
				return nil, fmt.Errorf("serve: replica %d linear %d is %s, want %s", ri, j, l.W.Name, lins[j].W.Name)
			}
			l.W.Value = e.weights[j]
		}
		for _, p := range r.Params() {
			p.Grad = nil
		}
		r.SetBufferReuse(true)
	}
	// the replicas' own copies of the prunable weights are garbage now
	// (16.5 MB a replica at the reference shape): collected here, they
	// give the first level's streams (14 MB at l6) pages the process
	// already touched, where a fresh heap would fault each one in
	runtime.GC()
	e.kernels = make([][]kernel.Kernel, len(bundle.Sets))
	e.levelBuild = make([]atomic.Int64, len(bundle.Sets))
	if err := e.buildLevel(0); err != nil {
		return nil, err
	}
	// the unpruned linears are the same at every level and, the replicas
	// being clones of one checkpoint, on every replica: pack each once
	// (the pattern kernel with no set keeps every weight, bit-identical to
	// the dense product it replaces), share it like the level kernels and
	// leave it installed — install only ever touches the prunable
	// linears; the dense references lift it for the length of the
	// reference run
	for _, l := range replicas[0].UnprunedLinears() {
		k, err := kernel.Build("pattern", l.W.Value, kernel.Options{})
		if err != nil {
			return nil, fmt.Errorf("serve: building the kernel of unpruned linear %s: %w", l.W.Name, err)
		}
		e.unpruned = append(e.unpruned, k)
	}
	for _, r := range e.replicas {
		for i, l := range r.UnprunedLinears() {
			l.SetKernel(e.unpruned[i])
		}
	}
	e.install(0)
	e.buildSeconds = time.Since(t0).Seconds()
	return e, nil
}

// Close releases nothing: the engine owns no goroutines (its passes
// borrow the process-wide mat.Fork helpers). It stays so that callers
// can pair it with NewEngineConfigured or Deploy.
func (e *Engine) Close() {}

// buildLevel packs level lvl's kernel for every prunable linear and
// keeps them, shared across replicas: packed weights are read-only, and
// any internal per-call scratch a format keeps (e.g. the Pattern
// kernel's lane-major free list) must be internally synchronized for
// concurrent MulInto calls. One build at a time, on the calling
// goroutine (the kernel.Builder contract). A failed build keeps nothing.
func (e *Engine) buildLevel(lvl int) error {
	t0 := time.Now()
	lins := e.replicas[0].PrunableLinears()
	opts := kernel.Options{Set: e.bundle.Sets[lvl]}
	ks := make([]kernel.Kernel, len(e.weights))
	for j, w := range e.weights {
		k, err := kernel.Build(e.cfg.Format, w, opts)
		if err != nil {
			return fmt.Errorf("serve: building %s kernel for level %s weight %s: %w",
				e.cfg.Format, e.LevelName(lvl), lins[j].W.Name, err)
		}
		ks[j] = k
	}
	e.kernels[lvl] = ks
	e.levelBuild[lvl].Store(int64(time.Since(t0)))
	return nil
}

// install points every replica's prunable linears at its packed kernels
// of the given level. Callers must ensure no forward pass is in flight.
func (e *Engine) install(level int) {
	for _, r := range e.replicas {
		for j, l := range r.PrunableLinears() {
			l.SetKernel(e.kernels[level][j])
		}
	}
}

// Format returns the configured kernel format name.
func (e *Engine) Format() string { return e.cfg.Format }

// NumLevels returns the number of deployed V/F levels.
func (e *Engine) NumLevels() int { return len(e.bundle.Sets) }

// Level returns the active level index. Safe to call concurrently with
// a switch (monitoring reads the freshest published value).
func (e *Engine) Level() int { return int(e.level.Load()) }

// LevelName returns the V/F level name of section i.
func (e *Engine) LevelName(i int) string { return e.bundle.LevelNames[i] }

// Levels returns the resolved V/F operating points, bundle order.
func (e *Engine) Levels() []dvfs.Level { return e.levels }

// VocabSize bounds the token ids the deployed model accepts:
// [0, VocabSize()).
func (e *Engine) VocabSize() int { return e.replicas[0].VocabSize() }

// Replicas returns the worker-pool width.
func (e *Engine) Replicas() int { return len(e.replicas) }

// SwitchTo activates level idx on every replica and returns the modeled
// cost of swapping its pattern set in, in milliseconds (0 when already
// active). The caller must guarantee no forward pass is in flight — the
// server drains its workers before calling this. The engine validates
// and builds before it installs: an out-of-range index is refused, a
// level it has not served yet has its kernels built first, and only then
// are they installed and the level published. A rejected switch leaves
// the engine serving the previous level: a failed build keeps nothing,
// and a fault armed by InjectSwitchError fires after the build and
// before the install, so it leaves the level built but not installed.
func (e *Engine) SwitchTo(idx int) (float64, error) {
	if idx < 0 || idx >= e.NumLevels() {
		return 0, fmt.Errorf("serve: level %d out of range %d", idx, e.NumLevels())
	}
	if idx == e.Level() {
		return 0, nil
	}
	if e.kernels[idx] == nil {
		if err := e.buildLevel(idx); err != nil {
			return 0, err
		}
	}
	if err := e.fault.Swap(nil); err != nil {
		return 0, fmt.Errorf("serve: switch to level %d failed: %w", idx, *err)
	}
	e.install(idx)
	e.level.Store(int32(idx))
	return e.switchMS[idx], nil
}

// InjectSwitchError arms a one-shot fault: the next SwitchTo that would
// change the level fails after building the level and before installing
// it, so the engine keeps serving the previous level with its kernels
// intact. Same-level and out-of-range calls leave the fault armed. A nil
// err disarms. Safe to call concurrently with a switch; it is the chaos
// harness's hook.
func (e *Engine) InjectSwitchError(err error) {
	if err == nil {
		e.fault.Store(nil)
		return
	}
	e.fault.Store(&err)
}

// ForwardBatch runs a whole dynamic batch as one packed forward pass on
// the given replica at the active level: per layer, one fused kernel
// product over all packed rows instead of one sweep per sequence. The
// returned matrices (one per sequence, order preserved) are the
// caller's to keep: replicas reuse their activation buffers, so outputs
// are copied at the engine boundary. Each output is bit-identical to a
// batch of that sequence alone.
func (e *Engine) ForwardBatch(replica int, seqs [][]int) []*mat.Matrix {
	outs := e.replicas[replica].ForwardBatch(seqs)
	rows := 0
	for _, ids := range seqs {
		rows += len(ids)
	}
	e.batchCount.Add(1)
	e.batchSeqs.Add(int64(len(seqs)))
	e.batchRows.Add(int64(rows))
	cloned := make([]*mat.Matrix, len(outs))
	for i, o := range outs {
		cloned[i] = o.Clone()
	}
	return cloned
}

// SupportsDecode reports whether every replica exposes the
// incremental-decoding surface (DecodeModel).
func (e *Engine) SupportsDecode() bool {
	for _, dm := range e.decModels {
		if dm == nil {
			return false
		}
	}
	return true
}

// decodeModel returns replica r's decoding surface.
func (e *Engine) decodeModel(replica int) (DecodeModel, error) {
	dm := e.decModels[replica]
	if dm == nil {
		return nil, fmt.Errorf("serve: replica %d does not support incremental decoding", replica)
	}
	return dm, nil
}

// NewDecodeState builds an empty per-sequence KV cache shaped for the
// given replica's model. The serving scheduler recycles states through
// a free-list, so the States counter staying at the slot count is the
// cache-memory-reuse signal.
func (e *Engine) NewDecodeState(replica int) (*transformer.DecodeState, error) {
	dm, err := e.decodeModel(replica)
	if err != nil {
		return nil, err
	}
	e.decStates.Add(1)
	return dm.NewDecodeState(), nil
}

// PrefillBatch runs the prompt phase for a batch of new sequences on
// the given replica: one fused packed pass that seeds each DecodeState's
// per-layer KV caches and returns, per sequence, the one row decoding
// reads — the 1 x vocab logits of the prompt's last position (the first
// generated token's distribution), bit-identical to ForwardBatch's last
// row; the top decoder layer and the output projection run on those rows
// alone (transformer.LMModel.Prefill). Unlike ForwardBatch, the returned
// logits are views valid only until the replica's next forward — the
// decode loop consumes them immediately, keeping the steady-state path
// allocation-free.
func (e *Engine) PrefillBatch(replica int, states []*transformer.DecodeState, prompts [][]int) ([]*mat.Matrix, error) {
	dm, err := e.decodeModel(replica)
	if err != nil {
		return nil, err
	}
	outs := dm.Prefill(states, prompts)
	rows := 0
	for _, p := range prompts {
		rows += len(p)
	}
	e.decPrefills.Add(1)
	e.decPrefillSeq.Add(int64(len(prompts)))
	e.decPrefillRows.Add(int64(rows))
	return outs, nil
}

// DecodeBatch advances every sequence by one token on the given
// replica: one fused decode step (per decoder layer, one kernel product
// over the B packed single-token rows) attending the per-sequence KV
// caches. Returns the packed B x vocab logits (row i belongs to
// states[i]) as a view valid until the replica's next forward. Counters
// record the step, its tokens, and the cached prefix rows each token
// attended instead of recomputing.
func (e *Engine) DecodeBatch(replica int, states []*transformer.DecodeState, tokens []int) (*mat.Matrix, error) {
	dm, err := e.decodeModel(replica)
	if err != nil {
		return nil, err
	}
	cached := int64(0)
	for _, st := range states {
		cached += int64(st.Pos())
	}
	logits := dm.DecodeStep(states, tokens)
	e.decSteps.Add(1)
	e.decTokens.Add(int64(len(tokens)))
	e.decCachedRows.Add(cached)
	return logits, nil
}

// DecodeChunkBatch teacher-forces multiple tokens per sequence through
// one fused multi-row decode pass on the given replica: chunk row j of
// sequence s appends its K/V row and attends the cache through that
// row, so the returned per-sequence logits are bit-identical to feeding
// the chunk through sequential DecodeBatch steps. This is the split-
// prefill suffix path (teacher-forcing an unshared suffix against a
// frozen prefix memory).
func (e *Engine) DecodeChunkBatch(replica int, states []*transformer.DecodeState, chunks [][]int) ([]*mat.Matrix, error) {
	dm, err := e.decodeModel(replica)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, c := range chunks {
		rows += len(c)
	}
	cached := int64(0)
	for _, st := range states {
		cached += int64(st.Pos())
	}
	outs := dm.DecodeChunk(states, chunks)
	e.decChunks.Add(1)
	e.decChunkRows.Add(int64(rows))
	e.decCachedRows.Add(cached)
	return outs, nil
}

// denseReference turns replica 0 into the masked dense reference of level
// idx: each prunable linear points at a masked clone of its backbone
// matrix (the backbone itself is shared and never written), and every
// serving kernel is removed — the level's and the unpruned linears'
// all-kept kernels alike, so the reference shares no kernel code with the
// execution it checks. The returned function points the linears back at
// the backbone and restores the active level's kernels and the unpruned
// linears' kernels.
func (e *Engine) denseReference(idx int) (restore func()) {
	m := e.replicas[0]
	lins := m.PrunableLinears()
	for j, l := range lins {
		mask, _ := e.bundle.Sets[idx].Apply(e.weights[j])
		masked := e.weights[j].Clone()
		masked.Hadamard(mask)
		l.W.Value = masked
		l.SetKernel(nil)
	}
	unpruned := m.UnprunedLinears()
	for _, l := range unpruned {
		l.SetKernel(nil)
	}
	active := e.kernels[e.Level()]
	return func() {
		for j, l := range lins {
			l.W.Value = e.weights[j]
			l.SetKernel(active[j])
		}
		for i, l := range unpruned {
			l.SetKernel(e.unpruned[i])
		}
	}
}

// RegisterMetrics exposes the engine's hot-path execution counters on
// an obs registry as read-callbacks: the atomics the workers bump stay
// plain atomics, and the registry reads them at gather time. The decode
// families are registered unconditionally (zero in classification mode)
// so scrapers see a stable series set.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("rt3_engine_build_seconds",
		"Wall time of the engine build: the first level's kernels and the unpruned linears'.",
		func() float64 { return e.buildSeconds })
	for lvl := range e.levelBuild {
		reg.GaugeFunc("rt3_level_build_seconds",
			"Wall time spent building one level's kernels, at construction or on its first switch; 0 until built.",
			func() float64 { return time.Duration(e.levelBuild[lvl].Load()).Seconds() }, obs.L("level", e.LevelName(lvl)))
	}
	reg.CounterFunc("rt3_fused_batches_total",
		"Fused packed forward passes (ForwardBatch calls).",
		func() float64 { return float64(e.batchCount.Load()) })
	reg.CounterFunc("rt3_batched_seqs_total",
		"Sequences executed through fused forward passes.",
		func() float64 { return float64(e.batchSeqs.Load()) })
	reg.CounterFunc("rt3_packed_rows_total",
		"Packed rows executed through fused forward passes.",
		func() float64 { return float64(e.batchRows.Load()) })
	reg.CounterFunc("rt3_decode_steps_total",
		"Fused decode steps (DecodeBatch calls).",
		func() float64 { return float64(e.decSteps.Load()) })
	reg.CounterFunc("rt3_decode_tokens_total",
		"Tokens decoded through fused decode steps.",
		func() float64 { return float64(e.decTokens.Load()) })
	reg.CounterFunc("rt3_decode_prefills_total",
		"Fused prompt prefill passes.",
		func() float64 { return float64(e.decPrefills.Load()) })
	reg.CounterFunc("rt3_decode_prefill_rows_total",
		"Packed prompt rows executed through prefill passes.",
		func() float64 { return float64(e.decPrefillRows.Load()) })
	reg.CounterFunc("rt3_decode_chunks_total",
		"Fused multi-row chunk passes (split-prefill suffix).",
		func() float64 { return float64(e.decChunks.Load()) })
	reg.CounterFunc("rt3_decode_chunk_rows_total",
		"Rows executed through fused chunk passes.",
		func() float64 { return float64(e.decChunkRows.Load()) })
	reg.CounterFunc("rt3_decode_cached_rows_total",
		"K/V rows served from caches instead of recomputed.",
		func() float64 { return float64(e.decCachedRows.Load()) })
	reg.CounterFunc("rt3_decode_states_total",
		"DecodeStates built (stays at the slot count under free-list reuse).",
		func() float64 { return float64(e.decStates.Load()) })
	reg.CounterFunc("rt3_kv_page_allocs_total",
		"KV-cache pages the process-wide pool had to make (flat once serving is warm: a page goes back when its last holder, a sequence or a prefix-cache entry, lets go).",
		func() float64 { made, _ := transformer.KVPages(); return float64(made) })
	reg.GaugeFunc("rt3_kv_pages_held",
		"Distinct KV-cache pages held now; a page a prefix-cache entry shares with the sequences loaded from it counts once.",
		func() float64 { _, held := transformer.KVPages(); return float64(held) })
	for i, component := range [...]string{"kv_pages_held", "kv_pages_free"} {
		reg.GaugeFunc("rt3_memory_bytes",
			"Bytes one component of the process's memory holds, read at scrape from the structure that owns them: kv_pages_held, the KV pages caches hold (a page shared with a prefix-cache entry counted once); kv_pages_free, the KV pages the pool keeps for reuse.",
			func() float64 { return float64(transformer.KVPageMemory()[i]) }, obs.L("component", component))
	}
	reg.GaugeFunc("rt3_level", "Active V/F level index (bundle order, fastest first).",
		func() float64 { return float64(e.Level()) })
}

// DecodeStats returns the cumulative incremental-decoding counters.
func (e *Engine) DecodeStats() DecodeStats {
	return DecodeStats{
		States:      e.decStates.Load(),
		Prefills:    e.decPrefills.Load(),
		PrefillSeq:  e.decPrefillSeq.Load(),
		PrefillRows: e.decPrefillRows.Load(),
		Steps:       e.decSteps.Load(),
		Tokens:      e.decTokens.Load(),
		CachedRows:  e.decCachedRows.Load(),
		Chunks:      e.decChunks.Load(),
		ChunkRows:   e.decChunkRows.Load(),
	}
}

// DenseForward runs one inference on replica 0 with level idx's mask
// applied to dense weights and the packed kernels bypassed — the ground
// truth a packed response must match element-for-element. It restores
// the active level's packed kernels before returning. Callers must hold
// the engine quiesced (the server exposes this as DenseReference).
func (e *Engine) DenseForward(idx int, ids []int) (*mat.Matrix, error) {
	if idx < 0 || idx >= e.NumLevels() {
		return nil, fmt.Errorf("serve: level %d out of range %d", idx, e.NumLevels())
	}
	defer e.denseReference(idx)()
	return e.replicas[0].Forward(ids).Clone(), nil
}

// DenseGenerate greedily decodes up to maxTokens tokens on replica 0
// with level idx's mask applied to dense weights and the packed kernels
// bypassed — the ground truth a generation served entirely at that level
// must match token-for-token (greedy decoding makes the reference
// deterministic). The frozen memory is the encoder over prefix; a
// non-empty suffix is teacher-forced through the decoder after it (a
// split request, prefix-cached or not), and an empty one makes prefix
// the whole prompt. It restores the dense weights and the active level's
// packed kernels before returning. Callers must hold the engine quiesced
// (the server exposes this as DenseGenReference and
// DenseGenReferenceSplit).
func (e *Engine) DenseGenerate(idx int, prefix, suffix []int, maxTokens, eos int) ([]int, error) {
	if idx < 0 || idx >= e.NumLevels() {
		return nil, fmt.Errorf("serve: level %d out of range %d", idx, e.NumLevels())
	}
	if len(prefix) == 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("serve: DenseGenerate needs a non-empty prefix and a positive token budget")
	}
	dm, err := e.decodeModel(0)
	if err != nil {
		return nil, err
	}
	defer e.denseReference(idx)()
	st := dm.NewDecodeState()
	defer st.Reset()
	sts := []*transformer.DecodeState{st}
	out := dm.Prefill(sts, [][]int{prefix})[0]
	if len(suffix) > 0 {
		out = dm.DecodeChunk(sts, [][]int{suffix})[0]
	}
	tokens := []int{out.ArgmaxRow(out.Rows - 1)}
	for tokens[len(tokens)-1] != eos && len(tokens) < maxTokens {
		tokens = append(tokens, dm.DecodeStep(sts, tokens[len(tokens)-1:]).ArgmaxRow(0))
	}
	return tokens, nil
}

// BundleFromModel builds a deployment bundle for a model: the dense
// values of every prunable projection plus one pattern set per level.
// sets and levelNames follow the fastest-first convention. The bundle
// borrows the model's weight storage instead of copying it, so a write
// to either shows in the other: encode it before the model changes.
func BundleFromModel(m Model, sets []*pattern.Set, levelNames []string) *deploy.Bundle {
	b := &deploy.Bundle{Sets: sets, LevelNames: levelNames}
	for _, l := range m.PrunableLinears() {
		w := l.W.Value
		b.Weights = append(b.Weights, deploy.WeightMatrix{
			Name: l.W.Name, Rows: w.Rows, Cols: w.Cols, Data: w.Data,
		})
	}
	return b
}

// DeploySpec is how Deploy draws a deployment from one seed.
type DeploySpec struct {
	Seed       int64
	Levels     []string  // level names, fastest first
	Sparsities []float64 // one pattern set's sparsity per level
	PSize      int       // pattern block size
	Patterns   int       // candidate patterns per set
}

// Deployment is what Deploy stood up.
type Deployment struct {
	Engine   *Engine
	Replicas []Model        // the engine's replicas: the drawn model, then clones of it
	Bundle   *deploy.Bundle // as decoded from its wire encoding
	Bytes    int            // length of that encoding
}

// Deploy stands up a deployment from one seed. newModel draws the model
// from a rand seeded with spec.Seed; the same rand then draws one pattern
// set per level over the model's first prunable matrix. The bundle of the
// model and those sets goes through Encode and deploy.Decode, as it would
// on its way to a device, and the engine installs the decoded bundle on
// `replicas` replicas: the model itself, then clones of it. Every
// deployment outside the benchmark comes from here; the benchmark times
// these stages one by one.
func Deploy[M interface {
	Model
	Clone() M
}](spec DeploySpec, newModel func(*rand.Rand) M, replicas int, cfg EngineConfig) (*Deployment, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	model := newModel(rng)
	ref := model.PrunableLinears()[0].W.Value
	sets := make([]*pattern.Set, len(spec.Sparsities))
	for i, sp := range spec.Sparsities {
		sets[i] = pattern.GenerateSet(ref, spec.PSize, sp, spec.Patterns, rng)
	}
	data, err := BundleFromModel(model, sets, spec.Levels).Encode()
	if err != nil {
		return nil, fmt.Errorf("serve: encode bundle: %w", err)
	}
	d := &Deployment{Bytes: len(data)}
	if d.Bundle, err = deploy.Decode(data); err != nil {
		return nil, fmt.Errorf("serve: decode bundle: %w", err)
	}
	for i := range replicas {
		r := model
		if i > 0 {
			r = model.Clone()
		}
		d.Replicas = append(d.Replicas, r)
	}
	if d.Engine, err = NewEngineConfigured(d.Bundle, d.Replicas, rtswitch.DefaultSwitchCostModel(), cfg); err != nil {
		return nil, err
	}
	return d, nil
}
