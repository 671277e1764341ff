package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed phase of a request's life: queue wait, batch
// execution, prefill, a decode step, or a switch stall it overlapped.
// Fields are fixed (two typed key/value args, no maps) so recording a
// span never allocates. Start is the offset from the trace's anchor.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
	K1    string
	V1    float64
	K2    string
	V2    float64
}

// Trace accumulates the spans of a single request. Traces are leased
// from a Tracer's free list by StartAt and returned by Finish/Abort, so a
// warm Tracer records whole request lifecycles without allocating. All
// methods are nil-safe: code paths instrumented with a nil *Trace (what
// a nil *Tracer leases) compile to cheap no-ops.
type Trace struct {
	ID      uint64
	Kind    string
	Dropped int // spans discarded once Spans hit capacity
	Spans   []Span

	start   time.Time // monotonic anchor: span offsets are Sub() from here
	switch0 int64     // tracer's cumulative switch-stall ns at StartAt
}

// Add records a span beginning at start (a time.Time captured with
// time.Now, carrying the monotonic clock) lasting d, with up to two
// typed args; pass "" for unused keys. When the trace's span buffer is
// full the span is counted in Dropped instead of growing the buffer.
func (t *Trace) Add(name string, start time.Time, d time.Duration, k1 string, v1 float64, k2 string, v2 float64) {
	if t == nil {
		return
	}
	if len(t.Spans) == cap(t.Spans) {
		t.Dropped++
		return
	}
	t.Spans = append(t.Spans, Span{
		Name:  name,
		Start: start.Sub(t.start),
		Dur:   d,
		K1:    k1,
		V1:    v1,
		K2:    k2,
		V2:    v2,
	})
}

// The tracer's fixed limits.
const (
	// spanCap bounds spans per trace; overflow increments Trace.Dropped
	// rather than growing the buffer.
	spanCap = 64
	// sampleFirst and sampleEvery sample decode-step spans: steps below
	// sampleFirst are always recorded, later steps only when
	// step%sampleEvery == 0.
	sampleFirst = 32
	sampleEvery = 16
	// ringCap bounds retained finished traces; older traces recycle into
	// the free list.
	ringCap = 256
)

// Tracer hands out request traces and retains the most recent finished
// ones in a fixed ring. Leasing and returning traces recycles buffers
// through a free list, so the steady-state hot path performs no
// allocation. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	nextID atomic.Uint64

	// switchNS accumulates wall time spent installing pattern sets with
	// the exec lock held; traces snapshot it at Start and Finish turns
	// the delta into a switch_stall span. lastTick tracks the autotune
	// decision tick most recently applied, for stall attribution.
	switchNS atomic.Int64
	lastTick atomic.Int64

	started      atomic.Uint64
	finished     atomic.Uint64
	aborted      atomic.Uint64
	droppedSpans atomic.Uint64

	mu   sync.Mutex
	free []*Trace
	ring []*Trace // fixed-capacity circular buffer of finished traces
	head int      // index of the oldest retained trace
	n    int      // retained count
}

// NewTracer builds a tracer: 64 spans per trace, every decode step
// below 32 and then every 16th, and a ring of the 256 most recent
// finished traces.
func NewTracer() *Tracer {
	return &Tracer{
		free: make([]*Trace, 0, ringCap+16),
		ring: make([]*Trace, ringCap),
	}
}

// StartAt leases a trace anchored at an already-captured timestamp
// (e.g. the enqueue instant), so queue wait is measured from admission
// rather than from when a worker first sees the request.
func (tr *Tracer) StartAt(kind string, at time.Time) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	var t *Trace
	if n := len(tr.free); n > 0 {
		t = tr.free[n-1]
		tr.free = tr.free[:n-1]
	}
	tr.mu.Unlock()
	if t == nil {
		t = &Trace{Spans: make([]Span, 0, spanCap)}
	}
	t.ID = tr.nextID.Add(1)
	t.Kind = kind
	t.Dropped = 0
	t.Spans = t.Spans[:0]
	t.start = at
	t.switch0 = tr.switchNS.Load()
	tr.started.Add(1)
	return t
}

// Finish closes a trace: any switch/drain stall that elapsed while it
// was in flight becomes a trailing switch_stall span (tagged with the
// autotune tick that applied), and the trace enters the retained ring,
// recycling the oldest entry's buffers when full.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	if stall := tr.switchNS.Load() - t.switch0; stall > 0 {
		now := time.Now()
		d := time.Duration(stall)
		t.Add("switch_stall", now.Add(-d), d,
			"stall_ms", float64(d)/float64(time.Millisecond),
			"autotune_tick", float64(tr.lastTick.Load()))
	}
	tr.finished.Add(1)
	if t.Dropped > 0 {
		tr.droppedSpans.Add(uint64(t.Dropped))
	}
	tr.mu.Lock()
	if tr.n == len(tr.ring) {
		old := tr.ring[tr.head]
		tr.ring[tr.head] = t
		tr.head = (tr.head + 1) % len(tr.ring)
		tr.free = append(tr.free, old)
	} else {
		tr.ring[(tr.head+tr.n)%len(tr.ring)] = t
		tr.n++
	}
	tr.mu.Unlock()
}

// Abort returns a leased trace to the free list without retaining it
// (dropped or failed admissions).
func (tr *Tracer) Abort(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	tr.aborted.Add(1)
	tr.mu.Lock()
	tr.free = append(tr.free, t)
	tr.mu.Unlock()
}

// SampleStep reports whether decode step i should be recorded under
// the tracer's sampling policy.
func (tr *Tracer) SampleStep(i int) bool {
	if tr == nil {
		return false
	}
	return i < sampleFirst || i%sampleEvery == 0
}

// ObserveSwitch accrues the wall time of one pattern-set install; every
// in-flight trace overlapping it will report the stall at Finish.
func (tr *Tracer) ObserveSwitch(d time.Duration) {
	if tr == nil || d <= 0 {
		return
	}
	tr.switchNS.Add(int64(d))
}

// NoteAutotuneTick records the decision tick whose level change was
// just applied, so subsequent switch_stall spans attribute to it.
func (tr *Tracer) NoteAutotuneTick(tick int64) {
	if tr == nil {
		return
	}
	tr.lastTick.Store(tick)
}

// traceExport is the JSONL shape of one finished trace.
type traceExport struct {
	ID      uint64       `json:"id"`
	Kind    string       `json:"kind"`
	Dropped int          `json:"dropped,omitempty"`
	Spans   []spanExport `json:"spans"`
}

type spanExport struct {
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	DurUS   float64            `json:"dur_us"`
	Args    map[string]float64 `json:"args,omitempty"`
}

// snapshot copies up to n of the most recent finished traces (oldest
// first) so export can serialize without holding the ring lock.
func (tr *Tracer) snapshot(n int) []traceExport {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > tr.n {
		n = tr.n
	}
	out := make([]traceExport, 0, n)
	for i := tr.n - n; i < tr.n; i++ {
		t := tr.ring[(tr.head+i)%len(tr.ring)]
		te := traceExport{ID: t.ID, Kind: t.Kind, Dropped: t.Dropped, Spans: make([]spanExport, len(t.Spans))}
		for j, s := range t.Spans {
			se := spanExport{
				Name:    s.Name,
				StartUS: float64(s.Start) / float64(time.Microsecond),
				DurUS:   float64(s.Dur) / float64(time.Microsecond),
			}
			if s.K1 != "" || s.K2 != "" {
				se.Args = map[string]float64{}
				if s.K1 != "" {
					se.Args[s.K1] = s.V1
				}
				if s.K2 != "" {
					se.Args[s.K2] = s.V2
				}
			}
			te.Spans[j] = se
		}
		out = append(out, te)
	}
	return out
}

// Len reports the number of retained finished traces.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.n
}

// WriteJSONL writes up to n recent traces (all retained if n <= 0) as
// one JSON object per line: {"id","kind","spans":[{"name","start_us",
// "dur_us","args"}],"dropped"}.
func (tr *Tracer) WriteJSONL(w io.Writer, n int) error {
	if tr == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, te := range tr.snapshot(n) {
		if err := enc.Encode(te); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one complete ("ph":"X") event in the Chrome
// trace_event format; timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	TS   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	PID  int                `json:"pid"`
	TID  uint64             `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteTraceEvents writes up to n recent traces (all if n <= 0) as a
// Chrome trace_event JSON file loadable in chrome://tracing or Perfetto.
// Each trace renders as one timeline row (tid = trace ID); timestamps
// are microseconds relative to the earliest retained trace.
func (tr *Tracer) WriteTraceEvents(w io.Writer, n int) error {
	if tr == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	traces := tr.snapshot(n)
	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for _, te := range traces {
		for _, s := range te.Spans {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: s.Name,
				Cat:  te.Kind,
				Ph:   "X",
				TS:   s.StartUS,
				Dur:  s.DurUS,
				PID:  1,
				TID:  te.ID,
				Args: s.Args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// RegisterMetrics exposes the tracer's own health counters on reg.
func (tr *Tracer) RegisterMetrics(reg *Registry) {
	if tr == nil || reg == nil {
		return
	}
	reg.CounterFunc("rt3_traces_started_total", "Traces leased by StartAt.",
		func() float64 { return float64(tr.started.Load()) })
	reg.CounterFunc("rt3_traces_finished_total", "Traces retained by Finish.",
		func() float64 { return float64(tr.finished.Load()) })
	reg.CounterFunc("rt3_traces_aborted_total", "Traces returned by Abort.",
		func() float64 { return float64(tr.aborted.Load()) })
	reg.CounterFunc("rt3_trace_spans_dropped_total", "Spans discarded at full span buffers.",
		func() float64 { return float64(tr.droppedSpans.Load()) })
	reg.GaugeFunc("rt3_trace_ring_len", "Finished traces currently retained.",
		func() float64 { return float64(tr.Len()) })
}

// String summarizes tracer state for progress logs.
func (tr *Tracer) String() string {
	if tr == nil {
		return "tracer disabled"
	}
	return fmt.Sprintf("tracer: %d started, %d finished, %d retained, %d spans dropped",
		tr.started.Load(), tr.finished.Load(), tr.Len(), tr.droppedSpans.Load())
}
