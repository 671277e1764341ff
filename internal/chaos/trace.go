package chaos

import (
	"embed"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rt3/internal/data"
	"rt3/internal/loadgen"
)

// traceVersion is the TraceSpec format this build understands.
const traceVersion = 1

// traceVocab bounds generation prompt tokens: the GLUE vocabulary, so
// one deployment serves both traffic kinds.
const traceVocab = 48

// Bounds on what a trace file may ask for: a day of arrivals, and 1024
// of anything that is allocated per unit before the first arrival.
const (
	maxTraceMS    = 24 * 60 * 60 * 1000
	maxTraceCount = 1024
)

//go:embed testdata/*.json
var builtinTraces embed.FS

// RateBucket is one segment of a workload trace: hold RPS for
// DurationMS milliseconds.
type RateBucket struct {
	DurationMS int     `json:"duration_ms"`
	RPS        float64 `json:"rps"`
}

// TraceSpec is a versioned, trace-driven workload description — the one
// on-disk form of a loadgen.Spec: a piecewise-constant arrival-rate
// profile plus the mixed-traffic shape (what fraction classifies, how
// generation prompts and budgets are sampled, which GLUE task supplies
// classification examples). Builtin traces live in testdata/ and are
// compiled in via go:embed.
type TraceSpec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// ClassifyFraction of arrivals submit a GLUE classification example;
	// the rest open or continue generation sessions.
	ClassifyFraction float64      `json:"classify_fraction"`
	Sessions         int          `json:"sessions"`
	PromptMin        int          `json:"prompt_min"`
	PromptMax        int          `json:"prompt_max"`
	OutMin           int          `json:"out_min"`
	OutMax           int          `json:"out_max"`
	GlueTask         string       `json:"glue_task"`
	GlueExamples     int          `json:"glue_examples"`
	Buckets          []RateBucket `json:"buckets"`
}

// Duration sums the bucket windows.
func (t *TraceSpec) Duration() time.Duration {
	var ms int
	for _, b := range t.Buckets {
		ms += b.DurationMS
	}
	return time.Duration(ms) * time.Millisecond
}

// validate rejects malformed specs up front, before a run can spin on
// them: a rate whose arrival gap is not a positive duration within the
// trace (1e-12 req/s overflows the gap and the virtual clock never
// advances), a GLUE task the generator would panic on, counts that
// allocate without bound.
func (t *TraceSpec) validate() error {
	if t.Version != traceVersion {
		return fmt.Errorf("chaos: trace %q has version %d, this build reads %d", t.Name, t.Version, traceVersion)
	}
	if len(t.Buckets) == 0 {
		return fmt.Errorf("chaos: trace %q has no rate buckets", t.Name)
	}
	totalMS := 0
	for i, b := range t.Buckets {
		if b.DurationMS <= 0 || b.DurationMS > maxTraceMS || b.RPS <= 0 {
			return fmt.Errorf("chaos: trace %q bucket %d: duration %dms rps %g must be positive (and at most a day)", t.Name, i, b.DurationMS, b.RPS)
		}
		totalMS += b.DurationMS
	}
	if totalMS > maxTraceMS {
		return fmt.Errorf("chaos: trace %q runs %dms, longer than a day", t.Name, totalMS)
	}
	total := time.Duration(totalMS) * time.Millisecond
	for i, b := range t.Buckets {
		if gap := float64(time.Second) / b.RPS; !(gap >= 1 && gap <= float64(total)) {
			return fmt.Errorf("chaos: trace %q bucket %d: %g req/s spaces arrivals outside (0, %s]", t.Name, i, b.RPS, total)
		}
	}
	if t.ClassifyFraction < 0 || t.ClassifyFraction > 1 {
		return fmt.Errorf("chaos: trace %q classify_fraction %g out of [0,1]", t.Name, t.ClassifyFraction)
	}
	if (t.ClassifyFraction > 0 || t.GlueTask != "") && !slices.Contains(data.GLUETaskNames, t.GlueTask) {
		return fmt.Errorf("chaos: trace %q glue_task %q is not one of %v", t.Name, t.GlueTask, data.GLUETaskNames)
	}
	for _, n := range []int{t.Sessions, t.PromptMin, t.PromptMax, t.OutMin, t.OutMax, t.GlueExamples} {
		if n > maxTraceCount {
			return fmt.Errorf("chaos: trace %q asks for %d sessions, tokens or examples; the limit is %d", t.Name, n, maxTraceCount)
		}
	}
	return nil
}

// withDefaults fills the optional sampling knobs.
func (t *TraceSpec) withDefaults() {
	if t.Sessions <= 0 {
		t.Sessions = 24
	}
	if t.PromptMin <= 0 {
		t.PromptMin = 4
	}
	if t.PromptMax < t.PromptMin {
		t.PromptMax = t.PromptMin + 6
	}
	if t.OutMin <= 0 {
		t.OutMin = 4
	}
	if t.OutMax < t.OutMin {
		t.OutMax = t.OutMin + 8
	}
	if t.GlueExamples <= 0 {
		t.GlueExamples = 32
	}
}

// ParseTrace decodes and validates a versioned trace spec.
func ParseTrace(b []byte) (*TraceSpec, error) {
	var t TraceSpec
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("chaos: parse trace: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.withDefaults()
	return &t, nil
}

// BuiltinTraces lists the embedded workload traces.
func BuiltinTraces() []string {
	entries, _ := builtinTraces.ReadDir("testdata")
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// LoadBuiltinTrace returns an embedded trace by name.
func LoadBuiltinTrace(name string) (*TraceSpec, error) {
	b, err := builtinTraces.ReadFile("testdata/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("chaos: unknown builtin trace %q (have %v)", name, BuiltinTraces())
	}
	return ParseTrace(b)
}

// Spec converts the trace to the load driver's form: bucket windows
// (and so the run) stretched by scale, and the classification pool
// generated from the GLUE task at seed+1.
func (t *TraceSpec) Spec(seed int64, scale float64) loadgen.Spec {
	buckets := make([]loadgen.Bucket, len(t.Buckets))
	for i, b := range t.Buckets {
		buckets[i] = loadgen.Bucket{For: time.Duration(b.DurationMS) * time.Millisecond, RPS: b.RPS}
	}
	var pool [][]int
	if t.ClassifyFraction > 0 {
		for _, ex := range data.GenerateTask(t.GlueTask, 0, t.GlueExamples, seed+1).Eval {
			pool = append(pool, ex.Tokens)
		}
	}
	return loadgen.Spec{
		Duration:         time.Duration(float64(t.Duration()) * scale),
		Rate:             loadgen.Buckets(buckets, scale),
		Seed:             seed,
		ClassifyFraction: t.ClassifyFraction,
		Pool:             pool,
		Sessions:         t.Sessions,
		PromptMin:        t.PromptMin,
		PromptMax:        t.PromptMax,
		OutMin:           t.OutMin,
		OutMax:           t.OutMax,
		Vocab:            traceVocab,
	}
}
