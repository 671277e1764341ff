package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as `key="value"` in the
// Prometheus exposition.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing float64, safe for concurrent
// use. Add with a negative delta panics: rates are computed from
// counter differences, and a decreasing counter silently corrupts them.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by d (d >= 0).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("obs: Counter.Add with negative delta")
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramOpts shapes a log-linear histogram: Decades power-of-ten
// decades starting at 10^MinDecade, each split into PerDecade linear
// sub-buckets. The zero value selects the latency default — 0.01ms to
// 10s in 9 sub-buckets per decade (55 bounds) — which resolves both a
// 40us kernel launch and a 2s drain stall to within ~11%.
type HistogramOpts struct {
	MinDecade int // lowest decade exponent (default -2: first bound 0.01)
	Decades   int // decade count (default 6)
	PerDecade int // linear sub-buckets per decade (default 9)
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Decades <= 0 {
		o.Decades = 6
		if o.MinDecade == 0 {
			o.MinDecade = -2
		}
	}
	if o.PerDecade <= 0 {
		o.PerDecade = 9
	}
	return o
}

// Bounds returns the bucket upper bounds the options generate: for each
// decade d, PerDecade linearly spaced bounds from 10^d up to 10^(d+1),
// with the very first bound 10^MinDecade itself. Observations above the
// last bound land in the implicit +Inf bucket.
func (o HistogramOpts) Bounds() []float64 {
	o = o.withDefaults()
	bounds := make([]float64, 0, o.Decades*o.PerDecade+1)
	bounds = append(bounds, math.Pow(10, float64(o.MinDecade)))
	for d := 0; d < o.Decades; d++ {
		base := math.Pow(10, float64(o.MinDecade+d))
		step := base * 9 / float64(o.PerDecade)
		for j := 1; j <= o.PerDecade; j++ {
			bounds = append(bounds, base+float64(j)*step)
		}
	}
	return bounds
}

// Histogram is a log-linear histogram. Observe is a binary search
// over ~55 precomputed bounds plus a short critical section — no
// allocation, cheap enough for per-request recording (but not for
// per-kernel-op recording; hot inner loops use atomic counters and
// expose rates instead).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram with the given bucket layout.
func NewHistogram(opts HistogramOpts) *Histogram {
	bounds := opts.Bounds()
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument within a family. Exactly one of the
// value sources is set.
type series struct {
	labels  string // rendered `{k="v",...}`, or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name, help string
	typ        metricType
	series     []*series
}

// Registry holds named instruments and renders them as Prometheus text
// exposition. Each server owns one registry; package-level producers
// (e.g. kernel's pool counters) register read-callbacks onto whichever
// registries want them. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or panics on conflict) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, counterType, &series{labels: renderLabels(labels), counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from f at gather
// time — the pattern for exposing an existing atomic (engine and kernel
// hot-path counters stay plain atomics; the registry reads them).
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, counterType, &series{labels: renderLabels(labels), fn: f})
}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, gaugeType, &series{labels: renderLabels(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge read from f at gather time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.add(name, help, gaugeType, &series{labels: renderLabels(labels), fn: f})
}

// Histogram registers a log-linear histogram series.
func (r *Registry) Histogram(name, help string, opts HistogramOpts, labels ...Label) *Histogram {
	h := NewHistogram(opts)
	r.add(name, help, histogramType, &series{labels: renderLabels(labels), hist: h})
	return h
}

// add validates and installs one series. Misregistration (bad name,
// duplicate series, type conflict) panics: it is a programming error at
// package init / constructor time, never a runtime condition.
func (r *Registry) add(name, help string, typ metricType, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, have := range f.series {
		if have.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// value reads a scalar series.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return s.counter.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (families sorted by name, series in registration order).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if f.typ == histogramType {
				writeHistogram(&b, f.name, s)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// by le, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", formatValue(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatValue(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, total)
}

// Snapshot returns every scalar series as name{labels} -> value;
// histogram series contribute _count and _sum entries. This is the
// machine-readable dump rt3bench -json embeds next to its tables.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.series {
			if f.typ == histogramType {
				out[f.name+"_count"+s.labels] = float64(s.hist.Count())
				out[f.name+"_sum"+s.labels] = s.hist.Sum()
				continue
			}
			out[f.name+s.labels] = s.value()
		}
	}
	return out
}

// renderLabels renders a label set as `{k="v",...}` (keys validated,
// values escaped), or "" for none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends one more label to a rendered label set (used for
// histogram le labels).
func mergeLabels(rendered, key, value string) string {
	extra := fmt.Sprintf(`%s=%q`, key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// escapeHelp escapes newlines and backslashes in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
