package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Counter.Value = %v, want 3.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Counter.Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Gauge.Value = %v, want 2.5", got)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	bounds := HistogramOpts{}.Bounds()
	if want := 6*9 + 1; len(bounds) != want {
		t.Fatalf("default bounds length = %d, want %d", len(bounds), want)
	}
	if bounds[0] != 0.01 {
		t.Fatalf("first bound = %v, want 0.01", bounds[0])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	// each decade's last bound is (within float error) the next decade's base
	if got := bounds[9]; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("decade boundary = %v, want 0.1", got)
	}
	if got := bounds[len(bounds)-1]; math.Abs(got-10000) > 1e-9 {
		t.Fatalf("last bound = %v, want 10000", got)
	}
}

// TestHistogramBucketBoundaries reads a histogram through its exposition:
// le is an inclusive upper bound, so a sample exactly on a bound lands in
// that bound's bucket, and one above the last bound only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", HistogramOpts{MinDecade: 0, Decades: 1, PerDecade: 3})
	for _, v := range []float64{0.5, 1, 4, 4.1, 10, 11} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE h histogram
h_bucket{le="1"} 2
h_bucket{le="4"} 3
h_bucket{le="7"} 4
h_bucket{le="10"} 5
h_bucket{le="+Inf"} 6
h_sum 30.6
h_count 6
`
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reqs := reg.Counter("rt3_requests_total", "Requests served.", L("level", "l6"))
	reqs.Add(3)
	reg.Counter("rt3_requests_total", "Requests served.", L("level", "l3")).Inc()
	reg.Gauge("rt3_queue_depth", "Queued requests.").Set(7)
	reg.CounterFunc("rt3_decode_steps_total", "Fused decode steps.", func() float64 { return 42 })
	h := reg.Histogram("rt3_request_latency_ms", "Request latency.", HistogramOpts{})
	h.Observe(0.5)
	h.Observe(12)
	h.Observe(1e9) // +Inf

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE rt3_requests_total counter",
		`rt3_requests_total{level="l6"} 3`,
		`rt3_requests_total{level="l3"} 1`,
		"rt3_queue_depth 7",
		"rt3_decode_steps_total 42",
		"# TYPE rt3_request_latency_ms histogram",
		`rt3_request_latency_ms_bucket{le="+Inf"} 3`,
		"rt3_request_latency_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	reg := NewRegistry()
	reg.Counter("rt3_ok_total", "")
	mustPanic("invalid name", func() { reg.Counter("0bad", "") })
	mustPanic("duplicate series", func() { reg.Counter("rt3_ok_total", "") })
	mustPanic("type conflict", func() { reg.Gauge("rt3_ok_total", "") })
	mustPanic("reserved le label", func() { reg.Counter("rt3_labeled_total", "", L("le", "x")) })
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rt3_a_total", "")
	c.Add(5)
	g := reg.Gauge("rt3_b", "")
	g.Set(2)
	h := reg.Histogram("rt3_c_ms", "", HistogramOpts{})
	h.Observe(1)
	ext := 9.0
	reg.GaugeFunc("rt3_d", "", func() float64 { return ext })

	snap := reg.Snapshot()
	if snap["rt3_a_total"] != 5 || snap["rt3_b"] != 2 || snap["rt3_c_ms_count"] != 1 || snap["rt3_d"] != 9 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

// TestRegistryConcurrent interleaves writes, gathers and snapshots from
// 8 goroutines; run under -race it pins the registry's
// concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rt3_conc_total", "")
	g := reg.Gauge("rt3_conc_gauge", "")
	h := reg.Histogram("rt3_conc_ms", "", HistogramOpts{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch (i + j) % 3 {
				case 0:
					c.Inc()
					g.Add(1)
					h.Observe(float64(j))
				case 1:
					reg.Snapshot()
				case 2:
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid after concurrent use: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"malformed sample":  "# TYPE a counter\na oops\n",
		"no TYPE":           "orphan_metric 1\n",
		"duplicate TYPE":    "# TYPE a counter\n# TYPE a counter\na 1\n",
		"bad type":          "# TYPE a widget\na 1\n",
		"non-cumulative":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"unsorted bounds":   "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"missing inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"bucket without le": "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n",
	}
	for name, in := range cases {
		if err := ValidateExposition([]byte(in)); err == nil {
			t.Errorf("%s: ValidateExposition accepted %q", name, in)
		}
	}
	if err := ValidateExposition([]byte("# random comment\n\n# TYPE ok gauge\nok 1.5\n")); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}
