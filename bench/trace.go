package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"rt3/internal/kernel"
	"rt3/internal/mat"
	"rt3/internal/pattern"
	"rt3/internal/rtswitch"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// Span kinds. Model spans (prefill, decode step, decode chunk) come
// from the DecodeModel shim, kernel spans from the format shim, request
// and switch spans from the load driver.
const (
	spanPrefill = iota
	spanDecodeStep
	spanDecodeChunk
	spanKernel
	spanRequest
	spanSwitch
)

var spanNames = [...]string{"prefill", "decode_step", "decode_chunk", "kernel.mul", "request", "switch"}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	kind   uint8
	level  int8
	start  int64
	dur    int64
	rows   int32 // rows the call executed (prompt rows, batch rows, tokens)
	parent int32 // kernel spans: index of the enclosing model span, else -1
	// model spans: time spent inside kernel spans; kernel spans: in*out
	// of the weight matrix (dense-equivalent work per row is 2*in*out).
	inner int64
}

// tracer keeps every span of a traced run in memory. Model and kernel
// spans are appended by whichever goroutine holds the server's
// execution lock (the decode worker, or the dense reference path), so
// they need no lock of their own; the driver reads them only between
// phases, when no request is in flight.
type tracer struct {
	epoch time.Time
	level func() int // active engine level, set once the engine exists

	model []span
	kern  []span
	open  int32 // index of the model span in progress, -1 outside one

	buildNS int64
	kernels []kernel.Kernel // every kernel built through the shim
}

// tracedFormat is the name the shim kernel format is registered under.
const tracedFormat = "bench-traced"

// newTracer registers the shim format: it builds whatever format the
// engine ships as its default and times every MulInto of the result.
func newTracer() (*tracer, error) {
	base, err := defaultFormat()
	if err != nil {
		return nil, err
	}
	tr := &tracer{
		epoch: time.Now(),
		level: func() int { return 0 },
		model: make([]span, 0, 1<<14),
		kern:  make([]span, 0, 1<<17),
		open:  -1,
	}
	kernel.Register(tracedFormat, func(w *mat.Matrix, opts kernel.Options) (kernel.Kernel, error) {
		t0 := time.Now()
		k, err := kernel.Build(base, w, opts)
		if err != nil {
			return nil, err
		}
		tr.buildNS += time.Since(t0).Nanoseconds()
		tr.kernels = append(tr.kernels, k)
		in, out := k.Dims()
		return &tracedKernel{Kernel: k, tr: tr, work: int64(in) * int64(out)}, nil
	})
	return tr, nil
}

// defaultFormat asks a throwaway engine which kernel format
// serve.EngineConfig{} resolves to.
func defaultFormat() (string, error) {
	m := transformer.NewLMModel(transformer.Config{
		Vocab: 8, Dim: 8, Heads: 1, FFHidden: 8,
		EncLayers: 1, DecLayers: 1, SeqLen: 8,
	}, newRand(1))
	set := pattern.RandomSet(4, 0.5, 1, newRand(1))
	b := serve.BundleFromModel(m, []*pattern.Set{set}, []string{"l6"})
	eng, err := serve.NewEngineConfigured(b, []serve.Model{m}, rtswitch.DefaultSwitchCostModel(), serve.EngineConfig{})
	if err != nil {
		return "", fmt.Errorf("probe default kernel format: %w", err)
	}
	defer eng.Close()
	return eng.Format(), nil
}

func (tr *tracer) now() int64 { return time.Since(tr.epoch).Nanoseconds() }

// begin opens a model span; end closes it. One replica runs one model
// call at a time, so at most one is open.
func (tr *tracer) begin(kind uint8, rows int) {
	tr.model = append(tr.model, span{
		kind: kind, level: int8(tr.level()), start: tr.now(), rows: int32(rows), parent: -1,
	})
	tr.open = int32(len(tr.model) - 1)
}

func (tr *tracer) end() {
	s := &tr.model[tr.open]
	s.dur = tr.now() - s.start
	tr.open = -1
}

// tracedModel is the DecodeModel shim: the embedded model does all the
// work, the three decode entry points are timed around it.
type tracedModel struct {
	*transformer.LMModel
	tr *tracer
}

func (m *tracedModel) Prefill(states []*transformer.DecodeState, prompts [][]int) []*mat.Matrix {
	rows := 0
	for _, p := range prompts {
		rows += len(p)
	}
	m.tr.begin(spanPrefill, rows)
	out := m.LMModel.Prefill(states, prompts)
	m.tr.end()
	return out
}

func (m *tracedModel) DecodeStep(states []*transformer.DecodeState, tokens []int) *mat.Matrix {
	m.tr.begin(spanDecodeStep, len(tokens))
	out := m.LMModel.DecodeStep(states, tokens)
	m.tr.end()
	return out
}

func (m *tracedModel) DecodeChunk(states []*transformer.DecodeState, chunks [][]int) []*mat.Matrix {
	rows := 0
	for _, c := range chunks {
		rows += len(c)
	}
	m.tr.begin(spanDecodeChunk, rows)
	out := m.LMModel.DecodeChunk(states, chunks)
	m.tr.end()
	return out
}

// tracedKernel times MulInto of the default-format kernel it wraps.
type tracedKernel struct {
	kernel.Kernel
	tr   *tracer
	work int64
}

func (k *tracedKernel) MulInto(dst, x *mat.Matrix) {
	tr := k.tr
	start := tr.now()
	k.Kernel.MulInto(dst, x)
	dur := tr.now() - start
	lvl := int8(0)
	if tr.open >= 0 {
		tr.model[tr.open].inner += dur
		lvl = tr.model[tr.open].level
	}
	tr.kern = append(tr.kern, span{
		kind: spanKernel, level: lvl, start: start, dur: dur,
		rows: int32(x.Rows), parent: tr.open, inner: k.work,
	})
}

// spanCostNS calibrates what recording one span costs (two clock reads
// and an append), so a traced run can state its own overhead.
func spanCostNS() float64 {
	const n = 200000
	tr := &tracer{epoch: time.Now(), kern: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		start := tr.now()
		tr.kern = append(tr.kern, span{start: start, dur: tr.now() - start})
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// traceEvent is one Chrome trace_event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes every span as Chrome trace_event JSON: one track
// per layer, kernel spans naming the model span that caused them and
// request spans carrying their request index.
func (tr *tracer) writeTrace(path string, driver []span) error {
	events := make([]traceEvent, 0, len(tr.model)+len(tr.kern)+len(driver))
	add := func(s span, id int, tid int) {
		args := map[string]any{"id": id, "rows": s.rows, "level": s.level}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, traceEvent{
			Name: spanNames[s.kind], Cat: spanNames[s.kind], Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			PID: 1, TID: tid, Args: args,
		})
	}
	for i, s := range tr.model {
		add(s, i, 2)
	}
	for i, s := range tr.kern {
		add(s, i, 3)
	}
	for _, s := range driver {
		tid := 1
		if s.kind == spanSwitch {
			tid = 0
		}
		add(s, int(s.inner), tid)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
