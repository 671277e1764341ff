package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"rt3/internal/transformer"
)

// tinyShape keeps the reference levels and sequence length (the
// workloads' prompts must fit) on a model small enough for unit tests.
func tinyShape() shape {
	sh := referenceShape
	sh.cfg = transformer.Config{
		Vocab: 64, Dim: 16, Heads: 2, FFHidden: 32,
		EncLayers: 1, DecLayers: 1, SeqLen: 256,
	}
	return sh
}

func TestGenerateIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		warmA, a := w.generate(7, 40, 512)
		warmB, b := w.generate(7, 40, 512)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(warmA, warmB) {
			t.Errorf("%s: same seed gave different requests", w.name)
		}
		_, c := w.generate(8, 40, 512)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave identical requests", w.name)
		}
		if len(a) != 40 || len(warmA) != warmupRequests {
			t.Errorf("%s: got %d timed and %d warm-up requests", w.name, len(a), len(warmA))
		}
		// every seed sends the same multiset of lengths
		lengths := func(reqs []genRequest) (p, o []int) {
			for _, r := range reqs {
				p, o = append(p, len(r.prompt)), append(o, r.opts.MaxTokens)
			}
			sort.Ints(p)
			sort.Ints(o)
			return p, o
		}
		pa, oa := lengths(a)
		pc, oc := lengths(c)
		if !reflect.DeepEqual(pa, pc) || !reflect.DeepEqual(oa, oc) {
			t.Errorf("%s: seeds 7 and 8 send different length multisets", w.name)
		}
		for _, r := range a {
			if n := len(r.prompt) - w.splitAt; n < w.promptLo || n > w.promptHi {
				t.Errorf("%s: unshared prompt length %d outside [%d, %d]", w.name, n, w.promptLo, w.promptHi)
			}
			if r.opts.MaxTokens < w.outLo || r.opts.MaxTokens > w.outHi || r.opts.EOS != -1 {
				t.Errorf("%s: bad generation options %+v", w.name, r.opts)
			}
			if len(r.prompt)+r.opts.MaxTokens > referenceShape.cfg.SeqLen {
				t.Errorf("%s: request of %d+%d tokens exceeds the model's sequence length", w.name, len(r.prompt), r.opts.MaxTokens)
			}
			if r.opts.SplitAt != w.splitAt {
				t.Errorf("%s: SplitAt %d, want %d", w.name, r.opts.SplitAt, w.splitAt)
			}
		}
	}
}

func TestSharedPrefixDrawsSystemPromptsByWeight(t *testing.T) {
	w, _ := workloadByName("shared_prefix")
	_, reqs := w.generate(3, 245, 512)
	counts := map[string]int{}
	for _, r := range reqs {
		key, _ := json.Marshal(r.prompt[:w.splitAt])
		counts[string(key)]++
	}
	if len(counts) != w.sysPrompts {
		t.Fatalf("saw %d distinct system prompts, want %d", len(counts), w.sysPrompts)
	}
	var got []int
	for _, c := range counts {
		got = append(got, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(got)))
	// weights 1, 1/2, ... 1/6 sum to 2.45, so 245 requests split exactly
	if want := []int{100, 50, 33, 25, 20, 17}; !reflect.DeepEqual(got, want) {
		t.Errorf("system prompt counts %v, want %v", got, want)
	}
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := newRand(1)
	xs := make([]float64, 137)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.9} {
		got, err := quantile(xs, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if want := sorted[int(math.Ceil(p*137))-1]; got != want {
			t.Errorf("p=%v: got %v, want %v", p, got, want)
		}
	}
	// p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9
	if _, err := quantile(xs[:100], 0.9); err != nil {
		t.Errorf("p90 of 100 samples refused: %v", err)
	}
	if _, err := quantile(xs[:99], 0.9); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p90 of 99 samples: err %v, want errTooFewSamples", err)
	}
	if _, err := quantile(xs, 0.95); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p95 of 137 samples: err %v, want errTooFewSamples", err)
	}
	if _, err := quantile(nil, 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("empty sample: err %v, want errTooFewSamples", err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestHostSlowdownIsTheMeanUnitTimeOfItsInterval(t *testing.T) {
	h := &hostRef{}
	for i := 0; i < 40; i++ {
		h.at = append(h.at, int64(i)*1000)
		d := refNominal // the first 20 units at nominal speed, one of the rest stalled
		if i >= 20 {
			d = 1.5 * refNominal
		}
		if i == 30 {
			d = 11.5 * refNominal
		}
		h.dur = append(h.dur, float64(d))
	}
	if got := h.slowdown(0, 19000); got != 1 {
		t.Errorf("nominal stretch: slowdown %v, want 1", got)
	}
	if got := h.slowdown(20000, 39000); got != 2 {
		t.Errorf("slow stretch with a stall: slowdown %v, want the mean 2, not the median 1.5", got)
	}
	if got := h.slowdown(35000, 39000); got != 1 {
		t.Errorf("5 samples: slowdown %v, want 1 (too few to correct by)", got)
	}
	live := startHostRef(time.Now())
	live.unit()
	live.end()
	live.end() // a second end is harmless
}

func TestJudgeVerdicts(t *testing.T) {
	lower := boundDef{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := boundDef{Name: "out_tok_s", Unit: "tok/s", Better: "higher", Bound: 0.10}
	setup := boundDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01} }
	cases := []struct {
		name     string
		def      boundDef
		old, new []float64
		want     string
	}{
		{"latency up 5%", lower, tight(100), tight(105), verdictWithin},
		{"latency up 20%", lower, tight(100), tight(120), verdictWorse},
		{"latency down 20%", lower, tight(100), tight(80), verdictBetter},
		{"throughput down 20%", higher, tight(100), tight(80), verdictWorse},
		{"throughput up 20%", higher, tight(100), tight(120), verdictBetter},
		{"single runs", lower, []float64{100}, []float64{125}, verdictWorse},
		{"noisy and overlapping", lower, []float64{70, 100, 130}, []float64{75, 120, 135}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{100, 130, 160}, []float64{50, 60, 90}, verdictBetter},
		{"noisy set-up goes by its medians", setup, []float64{70, 100, 130}, []float64{75, 105, 135}, verdictWithin},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareFilesFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := write("bounds.json", map[string]any{"end_to_end": []boundDef{
		{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
	}})
	run := func(latency float64, failed int) *report {
		return &report{Runs: []runRecord{{
			Workload: "decode_heavy", Attempted: 100, Failed: failed,
			Metrics: metricSet{"latency_ms_p50": {Value: latency, Unit: "ms"}},
		}}}
	}
	base := write("base.json", run(100, 0))
	if err := compareFiles(bounds, base, write("same.json", run(104, 0))); err != nil {
		t.Errorf("4%% slower within a 10%% bound: %v", err)
	}
	if err := compareFiles(bounds, base, write("slow.json", run(130, 0))); err == nil {
		t.Error("30% slower passed")
	}
	if err := compareFiles(bounds, base, write("failing.json", run(100, 1))); err == nil {
		t.Error("a higher failed share passed")
	}
	if err := compareFiles(bounds, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing report passed")
	}
}

// The benchmark's lists of names and units and BENCHMARK.json must not
// drift apart: the driver checks the emitted metrics against the file.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []boundDef `json:"end_to_end"`
		PerLayer  []boundDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, file []boundDef) {
		if len(defs) != len(file) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: benchmark has %s (%s), BENCHMARK.json has %s (%s)", kind, i, d.name, d.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %q / %q differs from BENCHMARK.json", i, w.name, w.why)
		}
	}
}

// The timing shims must not change what the server computes: a traced
// and an untraced deployment answer the same requests with the same
// tokens, and the traced one has spans to show for it.
func TestTracedShimsAreTransparent(t *testing.T) {
	sh := tinyShape()
	w, _ := workloadByName("shared_prefix")
	_, reqs := w.generate(5, 12, sh.cfg.Vocab)
	serve := func(tr *tracer) [][]int {
		d, err := buildDeployment(sh, serveConfig(w.cacheRows), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		var out [][]int
		for _, level := range []int{0, 2} {
			if _, err := d.srv.SwitchTo(level); err != nil {
				t.Fatal(err)
			}
			samples, _ := closedLoop(d.srv, reqs, w.clients, time.Now(), nil)
			for _, s := range samples {
				if s.err != nil || s.resp.Err != nil {
					t.Fatalf("request failed: %v %v", s.err, s.resp.Err)
				}
				out = append(out, s.resp.Tokens)
			}
		}
		return out
	}
	tr, err := newTracer()
	if err != nil {
		t.Fatal(err)
	}
	plain, traced := serve(nil), serve(tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("traced and untraced deployments returned different tokens")
	}
	if len(tr.model) == 0 || len(tr.kern) == 0 || len(tr.kernels) == 0 {
		t.Fatalf("tracer recorded %d model spans, %d kernel spans, %d kernels", len(tr.model), len(tr.kern), len(tr.kernels))
	}
	kinds := map[uint8]int{}
	for _, s := range tr.model {
		kinds[s.kind]++
		if s.dur <= 0 || s.inner > s.dur {
			t.Fatalf("model span %+v: kernel time must fit inside a positive duration", s)
		}
	}
	if kinds[spanPrefill] == 0 || kinds[spanDecodeStep] == 0 || kinds[spanDecodeChunk] == 0 {
		t.Errorf("span kinds seen: %v, want prefill, decode_step and decode_chunk", kinds)
	}
	for _, s := range tr.kern {
		if s.parent < 0 || int(s.parent) >= len(tr.model) {
			t.Fatalf("kernel span %+v has no enclosing model span", s)
		}
	}
}

// A smoke run of each kind on the tiny model: every declared metric is
// emitted, nothing fails, the outputs match the dense reference, and
// the same seed gives the same output hash.
func TestRunEmitsEveryMetric(t *testing.T) {
	sh := tinyShape()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 2, seconds: referenceSeconds, scale: 0.1, trace: trace}
			if trace {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			rec, err := runWorkload(sh, w, o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if rec.Failed != 0 || rec.Checked < 4 {
				t.Errorf("%s trace=%t: %d failed, %d outputs checked", w.name, trace, rec.Failed, rec.Checked)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rec.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or in %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
			}
			if w.steady() {
				again, err := runWorkload(sh, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if rec.OutputHash == "" || rec.OutputHash != again.OutputHash {
					t.Errorf("%s trace=%t: output hashes %q and %q", w.name, trace, rec.OutputHash, again.OutputHash)
				}
			}
			if trace {
				if rec.Metrics["kernel.calls"].Value == 0 || rec.Metrics["transformer.busy_share"].Value <= 0 {
					t.Errorf("%s: traced run saw no kernel calls or no busy time", w.name)
				}
				if info, err := os.Stat(o.traceOut); err != nil || info.Size() == 0 {
					t.Errorf("%s: trace file not written: %v", w.name, err)
				}
			}
		}
	}
}
