// Package serve is the online half of the RT3 story: a concurrent,
// batched inference server whose execution engine runs Transformer
// forward passes through packed sparse kernels and can be
// hot-reconfigured — swapping the active pattern set and V/F level in
// place, with in-flight batches drained first and the switch cost
// charged through the rtswitch cost model. A policy hook (the battery
// governor) or the closed-loop RL/DVFS autotuner drives level selection
// from observed queue depth, latency and simulated battery state,
// exercising the paper's core claim (cheap pattern-set swaps enable live
// reconfiguration) under load rather than in a scripted battery
// simulation.
package serve

import (
	"fmt"
	"math/rand"
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

// Engine owns a deployed bundle at run time: the shared dense backbone,
// one pre-built kernel set per V/F level, and one model replica per
// worker (replicas share the read-only packed kernels but keep private
// layer caches and activation buffers, so workers can run forward passes
// concurrently).
type Engine struct {
	bundle *deploy.Bundle
	recon  *rtswitch.Reconfigurator
	cfg    EngineConfig

	replicas []Model
	// weights[j] is the dense backbone matrix feeding prunable linear j
	// (same order as Model.PrunableLinears).
	weights []*mat.Matrix
	// kernels[level][j] is the execution kernel every replica installs
	// for linear j at level, built from the kernel registry per
	// EngineConfig. Packed weights are read-only, so replicas share them
	// and run forward passes concurrently.
	kernels [][]kernel.Kernel
	// unpruned[r][i] is the all-kept pattern kernel of replica r's i-th
	// unpruned linear (Model.UnprunedLinears order): level-independent,
	// installed at construction and lifted only while a dense reference
	// runs.
	unpruned [][]kernel.Kernel
	// buildSeconds is the wall time NewEngineConfigured took.
	buildSeconds float64

	// level mirrors recon.Current() for lock-free reads: monitoring code
	// may call Level concurrently with a switch.
	level atomic.Int32

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

// NewEngine deploys a bundle onto the given model replicas with the
// default configuration (pattern-packed kernels). See
// NewEngineConfigured.
func NewEngine(bundle *deploy.Bundle, replicas []Model, costs rtswitch.SwitchCostModel) (*Engine, error) {
	return NewEngineConfigured(bundle, replicas, costs, EngineConfig{})
}

// NewEngineConfigured deploys a bundle onto the given model replicas:
// backbone weights are written into every replica's prunable
// projections, each level's kernels are built once through the kernel
// registry, each replica's unpruned linears get a pattern kernel that
// keeps every weight, activation-buffer reuse is enabled on every
// replica, and the first
// (fastest) level is activated. All replicas must be clones of the same
// checkpoint, and from here on serve only: every linear now reads packed
// copies of its weights, and Backward refuses to run on them.
func NewEngineConfigured(bundle *deploy.Bundle, replicas []Model, costs rtswitch.SwitchCostModel, cfg EngineConfig) (*Engine, error) {
	t0 := time.Now()
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: need at least one model replica")
	}
	recon, err := rtswitch.FromBundle(bundle, costs)
	if err != nil {
		return nil, err
	}
	e := &Engine{bundle: bundle, recon: recon, cfg: cfg.withDefaults(), replicas: replicas}
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
			l.W.Value.CopyFrom(e.weights[j])
		}
		r.SetBufferReuse(true)
	}
	// pack each (level, layer) once and share across replicas: packed
	// weights are read-only, and any internal per-call scratch a format
	// keeps (e.g. the Pattern kernel's lane-major free list) must be
	// internally synchronized for concurrent MulInto calls. Weight-outer,
	// so one matrix stays in cache across its levels' builds; one at a
	// time, on this goroutine (the kernel.Builder contract).
	e.kernels = make([][]kernel.Kernel, len(bundle.Sets))
	for lvl := range bundle.Sets {
		e.kernels[lvl] = make([]kernel.Kernel, len(e.weights))
	}
	for j, w := range e.weights {
		for lvl, set := range bundle.Sets {
			k, err := kernel.Build(e.cfg.Format, w, kernel.Options{Set: set})
			if err != nil {
				return nil, fmt.Errorf("serve: building %s kernel for level %s weight %s: %w",
					e.cfg.Format, bundle.LevelNames[lvl], lins[j].W.Name, err)
			}
			e.kernels[lvl][j] = k
		}
	}
	// the unpruned linears are the same at every level: pack each
	// replica's once (the pattern kernel with no set keeps every weight,
	// bit-identical to the dense product it replaces) and leave them
	// installed — install only ever touches the prunable linears; the
	// dense references lift them for the length of the reference run
	e.unpruned = make([][]kernel.Kernel, len(e.replicas))
	for ri, r := range e.replicas {
		for _, l := range r.UnprunedLinears() {
			k, err := kernel.Build("pattern", l.W.Value, kernel.Options{})
			if err != nil {
				return nil, fmt.Errorf("serve: building the kernel of unpruned linear %s: %w", l.W.Name, err)
			}
			l.SetKernel(k)
			e.unpruned[ri] = append(e.unpruned[ri], k)
		}
	}
	e.install(0)
	e.buildSeconds = time.Since(t0).Seconds()
	return e, nil
}

// Close releases nothing: the engine owns no goroutines (its passes
// borrow the process-wide mat.Fork helpers). It stays so that callers
// can pair it with NewEngine.
func (e *Engine) Close() {}

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
func (e *Engine) Levels() []dvfs.Level { return e.recon.Levels }

// VocabSize bounds the token ids the deployed model accepts:
// [0, VocabSize()).
func (e *Engine) VocabSize() int { return e.replicas[0].VocabSize() }

// Replicas returns the worker-pool width.
func (e *Engine) Replicas() int { return len(e.replicas) }

// SwitchTo activates level idx on every replica and returns the modeled
// reconfiguration cost in milliseconds (0 when already active). The
// caller must guarantee no forward pass is in flight — the server drains
// its workers before calling this. A rejected switch leaves the engine
// serving the previous level: the reconfigurator validates before
// mutating, and kernels are only re-installed on success.
func (e *Engine) SwitchTo(idx int) (float64, error) {
	if idx == e.recon.Current() {
		return 0, nil
	}
	cost, err := e.recon.SwitchTo(idx)
	if err != nil {
		return 0, err
	}
	e.install(idx)
	e.level.Store(int32(idx))
	return cost, nil
}

// SwitchStats returns the cumulative switch count and modeled time.
func (e *Engine) SwitchStats() (int, float64) { return e.recon.Stats() }

// InjectSwitchError arms a one-shot fault on the reconfigurator: the
// next level change fails before mutating any state, so the engine
// keeps serving the previous level with its kernels intact. Chaos
// harness hook; a nil err disarms.
func (e *Engine) InjectSwitchError(err error) { e.recon.InjectSwitchError(err) }

// Forward runs one inference on the given replica at the active level.
// The returned matrix is the caller's to keep: replicas reuse their
// activation buffers, so the engine copies the output at the boundary.
func (e *Engine) Forward(replica int, ids []int) *mat.Matrix {
	return e.replicas[replica].Forward(ids).Clone()
}

// ForwardBatch runs a whole dynamic batch as one packed forward pass on
// the given replica at the active level: per layer, one fused kernel
// product over all packed rows instead of one sweep per sequence. The
// returned matrices (one per sequence, order preserved) are the
// caller's to keep — outputs are copied at the engine boundary, exactly
// like Forward. Each output is bit-identical to Forward on that
// sequence alone.
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
// idx: level idx's mask applied to the dense weights of the prunable
// linears, and every serving kernel removed — the level's and the unpruned
// linears' all-kept kernels alike, so the reference shares no kernel code
// with the execution it checks. The returned function restores the dense
// weights, the active level's kernels and the unpruned linears' kernels.
func (e *Engine) denseReference(idx int) (restore func()) {
	m := e.replicas[0]
	lins := m.PrunableLinears()
	for j, l := range lins {
		mask, _ := e.bundle.Sets[idx].Apply(e.weights[j])
		masked := e.weights[j].Clone()
		masked.Hadamard(mask)
		l.W.Value.CopyFrom(masked)
		l.SetKernel(nil)
	}
	unpruned := m.UnprunedLinears()
	for _, l := range unpruned {
		l.SetKernel(nil)
	}
	return func() {
		cur := e.recon.Current()
		for j, l := range lins {
			l.W.Value.CopyFrom(e.weights[j])
			l.SetKernel(e.kernels[cur][j])
		}
		for i, l := range unpruned {
			l.SetKernel(e.unpruned[0][i])
		}
	}
}

// DenseGenerateSplit greedily decodes the masked dense reference for a
// split request at level idx: the frozen memory is the encoder over
// prefix alone, the suffix is teacher-forced through the decoder, and
// generation continues greedily — the ground truth a served split
// generation (prefix-cached or not) must match token-for-token.
// Restores dense weights and packed kernels before returning; callers
// must hold the engine quiesced.
func (e *Engine) DenseGenerateSplit(idx int, prefix, suffix []int, maxTokens, eos int) ([]int, error) {
	if idx < 0 || idx >= e.NumLevels() {
		return nil, fmt.Errorf("serve: level %d out of range %d", idx, e.NumLevels())
	}
	if len(prefix) == 0 || len(suffix) == 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("serve: DenseGenerateSplit needs non-empty prefix and suffix and a positive token budget")
	}
	dm, err := e.decodeModel(0)
	if err != nil {
		return nil, err
	}
	defer e.denseReference(idx)()
	st := dm.NewDecodeState()
	st.Reserve(len(prefix) + len(suffix) + maxTokens)
	dm.Prefill([]*transformer.DecodeState{st}, [][]int{prefix})
	outs := dm.DecodeChunk([]*transformer.DecodeState{st}, [][]int{suffix})
	out := outs[0]
	tokens := []int{out.ArgmaxRow(out.Rows - 1)}
	for tokens[len(tokens)-1] != eos && len(tokens) < maxTokens {
		logits := dm.DecodeStep([]*transformer.DecodeState{st}, []int{tokens[len(tokens)-1]})
		tokens = append(tokens, logits.ArgmaxRow(0))
	}
	return tokens, nil
}

// RegisterMetrics exposes the engine's hot-path execution counters on
// an obs registry as read-callbacks: the atomics the workers bump stay
// plain atomics, and the registry reads them at gather time. The decode
// families are registered unconditionally (zero in classification mode)
// so scrapers see a stable series set, and the reconfigurator's switch
// accounting rides along.
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("rt3_engine_build_seconds",
		"Wall time of the engine build: every level's kernels and the unpruned linears'.",
		func() float64 { return e.buildSeconds })
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
	reg.GaugeFunc("rt3_level", "Active V/F level index (bundle order, fastest first).",
		func() float64 { return float64(e.Level()) })
	e.recon.RegisterMetrics(reg)
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

// DenseGenerate greedily decodes up to maxTokens tokens from prompt on
// replica 0 with level idx's mask applied to dense weights and the
// packed kernels bypassed — the ground truth a generation served
// entirely at that level must match token-for-token (greedy decoding
// makes the reference deterministic). It restores the dense weights and
// the active level's packed kernels before returning. Callers must hold
// the engine quiesced (the server exposes this as DenseGenReference).
func (e *Engine) DenseGenerate(idx int, prompt []int, maxTokens, eos int) ([]int, error) {
	if idx < 0 || idx >= e.NumLevels() {
		return nil, fmt.Errorf("serve: level %d out of range %d", idx, e.NumLevels())
	}
	if len(prompt) == 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("serve: DenseGenerate needs a non-empty prompt and a positive token budget")
	}
	dm, err := e.decodeModel(0)
	if err != nil {
		return nil, err
	}
	defer e.denseReference(idx)()
	st := dm.NewDecodeState()
	st.Reserve(len(prompt) + maxTokens)
	outs := dm.Prefill([]*transformer.DecodeState{st}, [][]int{prompt})
	out := outs[0]
	tokens := []int{out.ArgmaxRow(out.Rows - 1)}
	for tokens[len(tokens)-1] != eos && len(tokens) < maxTokens {
		logits := dm.DecodeStep([]*transformer.DecodeState{st}, []int{tokens[len(tokens)-1]})
		tokens = append(tokens, logits.ArgmaxRow(0))
	}
	return tokens, nil
}

// BundleFromModel builds a deployment bundle for a model: the dense
// values of every prunable projection plus one pattern set per level.
// sets and levelNames follow the fastest-first convention.
func BundleFromModel(m Model, sets []*pattern.Set, levelNames []string) *deploy.Bundle {
	b := &deploy.Bundle{Sets: sets, LevelNames: levelNames}
	for _, l := range m.PrunableLinears() {
		w := l.W.Value
		b.Weights = append(b.Weights, deploy.WeightMatrix{
			Name: l.W.Name, Rows: w.Rows, Cols: w.Cols,
			Data: append([]float64(nil), w.Data...),
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
	Replicas []Model        // the engine's replicas, clones of the drawn model
	Bundle   *deploy.Bundle // as decoded from its wire encoding
	Bytes    int            // length of that encoding
}

// Deploy stands up a deployment from one seed. newModel draws the model
// from a rand seeded with spec.Seed; the same rand then draws one pattern
// set per level over the model's first prunable matrix. The bundle of the
// model and those sets goes through Encode and deploy.Decode, as it would
// on its way to a device, and the engine installs the decoded bundle on
// `replicas` clones of the model. Every deployment outside the benchmark
// comes from here; the benchmark times these stages one by one.
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
	for range replicas {
		d.Replicas = append(d.Replicas, model.Clone())
	}
	if d.Engine, err = NewEngineConfigured(d.Bundle, d.Replicas, rtswitch.DefaultSwitchCostModel(), cfg); err != nil {
		return nil, err
	}
	return d, nil
}
