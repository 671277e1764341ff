package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceSpansAndJSONL(t *testing.T) {
	tr := NewTracer()
	anchor := time.Now()
	trace := tr.StartAt("req", anchor)
	if trace == nil {
		t.Fatalf("StartAt returned nil from an enabled tracer")
	}
	trace.Add("queue", anchor, 2*time.Millisecond, "", 0, "", 0)
	trace.Add("exec", anchor.Add(2*time.Millisecond), 5*time.Millisecond, "batch", 4, "fill", 0.5)
	tr.Finish(trace)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatalf("WriteJSONL produced no lines")
	}
	var got traceExport
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if got.Kind != "req" || len(got.Spans) != 2 {
		t.Fatalf("trace = %+v, want kind req with 2 spans", got)
	}
	if got.Spans[0].Name != "queue" || got.Spans[0].StartUS != 0 || got.Spans[0].DurUS != 2000 {
		t.Fatalf("queue span = %+v", got.Spans[0])
	}
	ex := got.Spans[1]
	if ex.StartUS != 2000 || ex.DurUS != 5000 || ex.Args["batch"] != 4 || ex.Args["fill"] != 0.5 {
		t.Fatalf("exec span = %+v", ex)
	}
}

func TestTraceSpanCapDrops(t *testing.T) {
	tr := NewTracer()
	trace := tr.StartAt("req", time.Now())
	now := time.Now()
	for i := 0; i < 66; i++ {
		trace.Add("s", now, time.Millisecond, "", 0, "", 0)
	}
	if len(trace.Spans) != 64 || trace.Dropped != 2 {
		t.Fatalf("spans=%d dropped=%d, want 64 and 2 (the 65th span on is dropped)", len(trace.Spans), trace.Dropped)
	}
	tr.Finish(trace)
	if got := tr.droppedSpans.Load(); got != 2 {
		t.Fatalf("tracer dropped-span counter = %d, want 2", got)
	}
}

func TestSampleStep(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 32; i++ {
		if !tr.SampleStep(i) {
			t.Fatalf("step %d below 32 not sampled", i)
		}
	}
	for i := 32; i < 200; i++ {
		if got, want := tr.SampleStep(i), i%16 == 0; got != want {
			t.Fatalf("SampleStep(%d) = %v, want %v (every 16th step from 32 on)", i, got, want)
		}
	}
	var nilTr *Tracer
	if nilTr.SampleStep(0) {
		t.Fatalf("nil tracer samples")
	}
}

func TestRingEvictionRecyclesBuffers(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 256; i++ {
		trace := tr.StartAt("req", time.Now())
		trace.Add("s", time.Now(), time.Millisecond, "", 0, "", 0)
		tr.Finish(trace)
	}
	freeLen := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return len(tr.free)
	}
	if tr.Len() != 256 || freeLen() != 0 {
		t.Fatalf("ring len = %d, free = %d after 256 traces, want 256 and 0", tr.Len(), freeLen())
	}
	// the 257th finished trace evicts the oldest (ID 1) into the free list
	tr.Finish(tr.StartAt("req", time.Now()))
	if tr.Len() != 256 || freeLen() != 1 {
		t.Fatalf("ring len = %d, free = %d after 257 traces, want 256 and 1", tr.Len(), freeLen())
	}
	traces := tr.snapshot(0)
	for i, te := range traces {
		if want := uint64(2 + i); te.ID != want {
			t.Fatalf("retained trace %d has ID %d, want %d (oldest-first)", i, te.ID, want)
		}
	}
	// sequential start/finish recycles each evicted trace into the next
	// Start, so steady state keeps exactly one spare on the free list.
	for i := 0; i < 10; i++ {
		tr.Finish(tr.StartAt("req", time.Now()))
	}
	if freeLen() != 1 {
		t.Fatalf("free list has %d traces, want 1 (evictions recycled into Start)", freeLen())
	}
}

func TestSwitchStallSpan(t *testing.T) {
	tr := NewTracer()
	tr.NoteAutotuneTick(9)
	trace := tr.StartAt("req", time.Now())
	tr.ObserveSwitch(3 * time.Millisecond)
	tr.Finish(trace)

	got := tr.snapshot(0)
	if len(got) != 1 {
		t.Fatalf("retained %d traces, want 1", len(got))
	}
	var stall *spanExport
	for i := range got[0].Spans {
		if got[0].Spans[i].Name == "switch_stall" {
			stall = &got[0].Spans[i]
		}
	}
	if stall == nil {
		t.Fatalf("no switch_stall span in %+v", got[0].Spans)
	}
	if stall.Args["stall_ms"] != 3 || stall.Args["autotune_tick"] != 9 {
		t.Fatalf("switch_stall args = %v, want stall_ms=3 autotune_tick=9", stall.Args)
	}

	// a trace started after the switch observes no stall
	after := tr.StartAt("req", time.Now())
	tr.Finish(after)
	got = tr.snapshot(0)
	for _, s := range got[1].Spans {
		if s.Name == "switch_stall" {
			t.Fatalf("post-switch trace carries a stall span")
		}
	}
}

func TestWriteTraceEventsSchema(t *testing.T) {
	tr := NewTracer()
	trace := tr.StartAt("gen", time.Now())
	now := time.Now()
	trace.Add("prefill", now, time.Millisecond, "rows", 8, "", 0)
	trace.Add("decode_step", now.Add(time.Millisecond), 500*time.Microsecond, "step", 0, "batch", 2)
	tr.Finish(trace)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf, 0); err != nil {
		t.Fatalf("WriteTraceEvents: %v", err)
	}
	// schema check: the file must be what chrome://tracing loads — a
	// JSON object with a traceEvents array of complete (ph "X") events
	// carrying name/ts/dur/pid/tid.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace_event file does not parse: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents has %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event ph = %v, want X", ev["ph"])
		}
		for _, key := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
	}

	var empty *Tracer
	buf.Reset()
	if err := empty.WriteTraceEvents(&buf, 0); err != nil {
		t.Fatalf("nil tracer WriteTraceEvents: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer emits unparseable file: %v", err)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	trace := tr.StartAt("req", time.Now()) // nil
	trace.Add("s", time.Now(), time.Millisecond, "", 0, "", 0)
	tr.Finish(trace)
	tr.Abort(trace)
	tr.ObserveSwitch(time.Millisecond)
	tr.NoteAutotuneTick(1)
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len = %d", tr.Len())
	}
	if !strings.Contains(tr.String(), "disabled") {
		t.Fatalf("nil tracer String = %q", tr.String())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer WriteJSONL = %v, %q", err, buf.String())
	}
}

// TestTraceHotPathAllocs pins the zero-alloc contract: once the free
// list is warm, a full lease/record/finish cycle performs no heap
// allocation, which is what keeps tracing inside the decode loop's
// 0 allocs/op budget.
func TestTraceHotPathAllocs(t *testing.T) {
	tr := NewTracer()
	// warm: fill the ring past its 256 traces, so the free list holds
	// the evicted ones
	for i := 0; i < 300; i++ {
		tr.Finish(tr.StartAt("warm", time.Now()))
	}
	allocs := testing.AllocsPerRun(200, func() {
		now := time.Now()
		trace := tr.StartAt("req", now)
		trace.Add("queue", now, time.Millisecond, "", 0, "", 0)
		trace.Add("exec", now, time.Millisecond, "batch", 8, "fill", 1)
		if tr.SampleStep(3) {
			trace.Add("decode_step", now, time.Microsecond, "step", 3, "batch", 8)
		}
		tr.Finish(trace)
	})
	if allocs != 0 {
		t.Fatalf("trace hot path allocates %.1f/op, want 0", allocs)
	}
}
