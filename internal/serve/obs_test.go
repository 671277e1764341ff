package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"rt3/internal/mat"
	"rt3/internal/obs"
	"rt3/internal/serve"
	"rt3/internal/transformer"
)

// TestRecorderFacadeConcurrent hammers the Recorder façade and its
// backing registry from 8 goroutines mixing observations and snapshots
// — the contract the admin scraper relies on while workers are
// recording (run under -race).
func TestRecorderFacadeConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	rec := serve.NewRecorderOn(reg, levelNames)
	const (
		workers = 8
		iters   = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 7 {
				case 0:
					rec.Observe(i%len(levelNames), float64(i%7), float64(i%5))
				case 1:
					rec.ObserveBatch(1+i%8, 8)
				case 2:
					rec.ObserveSwitch(float64(i%3), float64(i%4))
					rec.ObserveDrop()
					rec.ObserveTokens(i % 9)
				case 3:
					rec.Snapshot()
					rec.Overall()
				case 4:
					rec.RecentStats()
				case 5:
					rec.MeanBatch()
					rec.FillRatio()
				case 6:
					reg.Snapshot()
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("post-stress exposition invalid: %v\n%s", err, buf.String())
	}
}

// TestServerMetricsExposition drives the classification server through
// requests and a live switch, then asserts the registry renders valid
// Prometheus text containing the series the CI smoke job greps for.
func TestServerMetricsExposition(t *testing.T) {
	eng, _ := newTestDeployment(t, 2)
	srv := serve.New(eng, serve.Config{MaxBatch: 4, QueueCap: 64})
	srv.Start()
	seqs := randSeqs(12, 10, 24, 71)
	var chans []<-chan serve.Response
	for _, ids := range seqs[:6] {
		ch, err := srv.Submit(ids)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if _, err := srv.SwitchTo(1); err != nil {
		t.Fatal(err)
	}
	chans = chans[:0]
	for _, ids := range seqs[6:] {
		ch, err := srv.Submit(ids)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	srv.Stop()

	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, series := range []string{
		"rt3_requests_total",
		"rt3_decode_steps_total",
		"rt3_switch_stall_ms",
		"rt3_switches_total",
		"rt3_batches_total",
		"rt3_level",
		"rt3_queue_depth",
		"rt3_traces_finished_total",
		"rt3_kernel_builds_total",
		"rt3_engine_build_seconds",
		"rt3_mat_parallel_regions_total",
		"rt3_mat_parallel_inline_busy_total",
		"rt3_mat_parallel_helped_total",
		"rt3_mat_parallel_wakes_total",
		`rt3_mat_lane_isa{isa="` + mat.LaneISA() + `"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s:\n%s", series, text)
		}
	}
	snap := srv.Metrics().Snapshot()
	var completed float64
	for _, name := range levelNames {
		completed += snap[`rt3_requests_total{level="`+name+`"}`]
	}
	if completed != 12 {
		t.Fatalf("rt3_requests_total sums to %v, want 12", completed)
	}
	if snap["rt3_switches_total"] != 1 {
		t.Fatalf("rt3_switches_total = %v, want 1", snap["rt3_switches_total"])
	}
	// the construction is timed once; a first switch's build is not in it
	if b := snap["rt3_engine_build_seconds"]; !(b > 0 && b < 60) {
		t.Fatalf("rt3_engine_build_seconds = %v, want the build's wall time", b)
	}
}

// TestLevelBuildScrapedDuringFirstSwitches: a loaded server switches to
// every level for the first time, each switch building that level, while
// another goroutine scrapes the registry in a loop — the level-build
// gauges a switch writes are read concurrently (run under -race).
func TestLevelBuildScrapedDuringFirstSwitches(t *testing.T) {
	eng, _ := newLMDeployment(t, 2, "")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 64})
	srv.Start()
	defer srv.Stop()
	stop, done := make(chan struct{}), make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(done)
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf.Reset()
			if scrapeErr = srv.Metrics().WritePrometheus(&buf); scrapeErr != nil {
				return
			}
			srv.Metrics().Snapshot()
		}
	}()
	stopScraper := sync.OnceValue(func() error {
		close(stop)
		<-done
		return scrapeErr
	})
	defer stopScraper()
	var chans []<-chan serve.GenResponse
	for i, p := range randSeqs(16, 6, lmCfg.Vocab, 53) {
		ch, err := srv.SubmitGen(p, 4+i%4, -1)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		if lvl := i / 4; i%4 == 0 && lvl > 0 && lvl < eng.NumLevels() {
			if _, err := srv.SwitchTo(lvl); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	if err := stopScraper(); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics().Snapshot()
	for lvl := 0; lvl < eng.NumLevels(); lvl++ {
		if s := snap[`rt3_level_build_seconds{level="`+eng.LevelName(lvl)+`"}`]; !(s > 0) {
			t.Fatalf("level %s reads %v s after its first switch, want its build time", eng.LevelName(lvl), s)
		}
	}
}

// TestPrefixCacheMetricsExposition scrapes a generation server whose
// prefix cache is smaller than one prefix: the whole rt3_prefix_* family
// renders as valid exposition, every insert is refused before a row is
// copied, and the refusals are visible as a counter.
func TestPrefixCacheMetricsExposition(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 64,
		PrefixCacheRows: 3,
	})
	srv.Start()
	prefix := randSeqs(1, 5, lmCfg.Vocab, 701)[0]
	for _, suffix := range randSeqs(3, 3, lmCfg.Vocab, 709) {
		if resp := splitGenDense(t, srv, eng.Level(), prefix, suffix, 4); resp.CachedRows != 0 {
			t.Fatalf("%d cached rows from a cache that holds no prefix", resp.CachedRows)
		}
	}
	srv.Stop()

	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	snap := srv.Metrics().Snapshot()
	for series, want := range map[string]float64{
		"rt3_prefix_lookups_total":           3,
		"rt3_prefix_hits_total":              0,
		"rt3_prefix_hit_rows_total":          0,
		"rt3_prefix_inserted_rows_total":     0,
		"rt3_prefix_evicted_rows_total":      0,
		"rt3_prefix_root_evictions_total":    0,
		"rt3_prefix_admission_rejects_total": 3,
		"rt3_prefix_cache_rows":              0,
	} {
		if got, ok := snap[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// TestKVPageAllocsFlatOnRepeatedLoad: rt3_kv_page_allocs_total counts
// the KV pages the pool had to make. A second run of the same load —
// split generations whose prompts evict each other from the prefix
// cache, then plain ones whose caches take further pages — takes every
// page from the pool, so the counter stays flat across it. Once every
// reply is in, rt3_kv_pages_held has risen by the pages of the one
// cached prompt alone: every slot let go of the pages it shared with it.
func TestKVPageAllocsFlatOnRepeatedLoad(t *testing.T) {
	cfg := lmCfg
	cfg.SeqLen = 160
	eng, _ := newLMDeploymentCfg(t, cfg, 1, "pattern")
	const prefixLen = 70
	srv := serve.New(eng, serve.Config{
		Generate: true, MaxBatch: 4, QueueCap: 64, MaxGenTokens: 96,
		PrefixCacheRows: prefixLen, // one prompt: every insert evicts the other
	})
	srv.Start()
	defer srv.Stop()
	prefixes := randSeqs(2, prefixLen, cfg.Vocab, 811)
	prompts := randSeqs(3, 20, cfg.Vocab, 812)
	load := func() {
		for i := 0; i < 4; i++ {
			splitGen(t, srv, prefixes[i%2], prompts[i%3][:5], serve.GenOpts{MaxTokens: 8, EOS: -1})
		}
		for i, p := range prompts {
			ch, err := srv.SubmitGenOpts(p, serve.GenOpts{MaxTokens: 30 * (i + 1), EOS: -1})
			if err != nil {
				t.Fatal(err)
			}
			if resp := <-ch; resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	metric := func(name string) float64 {
		v, ok := srv.Metrics().Snapshot()[name]
		if !ok {
			t.Fatalf("%s is not exposed", name)
		}
		return v
	}
	made := func() float64 { return metric("rt3_kv_page_allocs_total") }
	held := metric("rt3_kv_pages_held")
	load()
	first := made()
	load()
	if again := made(); again != first {
		t.Fatalf("rt3_kv_page_allocs_total rose from %v to %v over a repeat of the same load", first, again)
	}
	// a 70-row prompt: its self and its memory pages in each decoder layer
	pages := (prefixLen + transformer.KVPageRows - 1) / transformer.KVPageRows
	if got, want := metric("rt3_kv_pages_held")-held, float64(2*pages*cfg.DecLayers); got != want {
		t.Fatalf("rt3_kv_pages_held rose by %v over the load, want the cached prompt's %v pages", got, want)
	}
	if st, _ := srv.PrefixCacheStats(); st.Evictions == 0 {
		t.Fatalf("%+v: no prefix-cache entry was evicted, the load does not give pages back through eviction", st)
	}
}

// TestMemoryBytesKVPages: rt3_memory_bytes prices the KV pool at
// scrape. After a warm one-model load the held component is the pages
// held times one page's bytes — 2·dim·KVPageRows float64s — and the free
// component prices the pages made and not held the same way: with one
// model dim the pool drops no page.
func TestMemoryBytesKVPages(t *testing.T) {
	cfg := lmCfg
	cfg.SeqLen = 64
	eng, _ := newLMDeploymentCfg(t, cfg, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, QueueCap: 64, MaxGenTokens: 40, PrefixCacheRows: 20})
	srv.Start()
	defer srv.Stop()
	for round := 0; round < 2; round++ {
		for _, p := range randSeqs(6, 10, cfg.Vocab, 813) {
			ch, err := srv.SubmitGenOpts(p, serve.GenOpts{MaxTokens: 40, EOS: -1})
			if err != nil {
				t.Fatal(err)
			}
			if resp := <-ch; resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	snap := srv.Metrics().Snapshot()
	page := float64(2 * cfg.Dim * transformer.KVPageRows * 8)
	held, made := snap["rt3_kv_pages_held"], snap["rt3_kv_page_allocs_total"]
	if held == 0 || made == held {
		t.Fatalf("%v pages made, %v held: the load leaves no page both held and free", made, held)
	}
	for component, pages := range map[string]float64{"kv_pages_held": held, "kv_pages_free": made - held} {
		series := `rt3_memory_bytes{component="` + component + `"}`
		if got, ok := snap[series]; !ok || got != pages*page {
			t.Errorf("%s = %v (present %v), want %v pages x %v bytes", series, got, ok, pages, page)
		}
	}
}

// TestGenServerTraceSpans runs generations through the continuous-
// batching server and asserts the retained request traces carry the
// queue/prefill/decode_step/finish span sequence, export as JSONL, and
// render to schema-valid Chrome trace_event JSON.
func TestGenServerTraceSpans(t *testing.T) {
	eng, _ := newLMDeployment(t, 1, "pattern")
	srv := serve.New(eng, serve.Config{Generate: true, MaxBatch: 4, MaxGenTokens: 5, QueueCap: 64})
	srv.Start()
	prompts := [][]int{
		randSeqs(1, 4, lmCfg.Vocab, 81)[0],
		randSeqs(1, 3, lmCfg.Vocab, 82)[0],
		randSeqs(1, 5, lmCfg.Vocab, 83)[0],
	}
	var chans []<-chan serve.GenResponse
	for _, p := range prompts {
		ch, err := srv.SubmitGen(p, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	srv.Stop()

	tracer := srv.Tracer()
	if tracer == nil {
		t.Fatal("tracer disabled under default config")
	}
	if got := tracer.Len(); got != len(prompts) {
		t.Fatalf("retained traces = %d, want %d", got, len(prompts))
	}

	var jsonl bytes.Buffer
	if err := tracer.WriteJSONL(&jsonl, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&jsonl)
	traces := 0
	for sc.Scan() {
		traces++
		var te struct {
			Kind  string `json:"kind"`
			Spans []struct {
				Name  string             `json:"name"`
				DurUS float64            `json:"dur_us"`
				Args  map[string]float64 `json:"args"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(sc.Bytes(), &te); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		if te.Kind != "generate" {
			t.Fatalf("trace kind = %q, want generate", te.Kind)
		}
		seen := map[string]int{}
		for _, s := range te.Spans {
			seen[s.Name]++
		}
		for _, name := range []string{"queue", "prefill", "decode_step", "finish"} {
			if seen[name] == 0 {
				t.Fatalf("trace missing %s span: %+v", name, seen)
			}
		}
		// 5 tokens = 1 prefill token + 4 decode steps, all below
		// SampleFirst, so every step span is present.
		if seen["decode_step"] != 4 {
			t.Fatalf("decode_step spans = %d, want 4", seen["decode_step"])
		}
		var finish map[string]float64
		for _, s := range te.Spans {
			if s.Name == "finish" {
				finish = s.Args
			}
		}
		if finish["tokens"] != 5 || finish["steps"] != 4 {
			t.Fatalf("finish args = %v, want tokens=5 steps=4", finish)
		}
	}
	if traces != len(prompts) {
		t.Fatalf("JSONL traces = %d, want %d", traces, len(prompts))
	}

	var chrome bytes.Buffer
	if err := tracer.WriteTraceEvents(&chrome, 0); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  uint64  `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" || len(file.TraceEvents) == 0 {
		t.Fatalf("bad chrome file: unit=%q events=%d", file.DisplayTimeUnit, len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" || ev.PID != 1 || ev.TID == 0 {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}
}

// TestSubmitTraceStallSpan verifies a classification request that
// overlaps a live switch reports the stall in its trace, and one
// admitted after the switch does not.
func TestSubmitTraceStallSpan(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	// every step lasts at least the floor, so request X holds the one
	// loop while A queues behind it and the switch lands before A runs:
	// A deterministically overlaps the switch
	srv := serve.New(eng, serve.Config{MaxBatch: 1, QueueCap: 64, StepFloor: 200 * time.Millisecond})
	srv.Start()
	defer srv.Stop()
	ids := randSeqs(1, 10, 24, 91)[0]

	chX, err := srv.Submit(ids)
	if err != nil {
		t.Fatal(err)
	}
	for srv.Status().QueueDepth > 0 { // X taken into its step
		time.Sleep(100 * time.Microsecond)
	}
	chA, err := srv.Submit(ids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SwitchTo(2); err != nil {
		t.Fatal(err)
	}
	// B's trace starts after the switch: it must not inherit the stall
	chB, err := srv.Submit(ids)
	if err != nil {
		t.Fatal(err)
	}
	<-chX
	if resp := <-chA; resp.Level != 2 {
		t.Fatalf("A served at level %d, want 2 (after the switch)", resp.Level)
	}
	<-chB

	var jsonl bytes.Buffer
	if err := srv.Tracer().WriteJSONL(&jsonl, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("retained %d traces, want 3", len(lines))
	}
	stalls := make([]bool, len(lines))
	for i, line := range lines {
		var te struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		}
		if err := json.Unmarshal([]byte(line), &te); err != nil {
			t.Fatal(err)
		}
		for _, s := range te.Spans {
			if s.Name == "switch_stall" {
				stalls[i] = true
			}
		}
	}
	// traces finish in order X, A, B; X may or may not overlap the
	// switch, by whether its step took the exec lock first
	if !stalls[1] {
		t.Fatal("overlapping trace missing switch_stall span")
	}
	if stalls[2] {
		t.Fatal("post-switch trace reports a stall it never overlapped")
	}
}

// TestDefaultServerTraces: a zero-Config server traces every request,
// and its ring holds a finished one by the time its response arrives.
func TestDefaultServerTraces(t *testing.T) {
	eng, _ := newTestDeployment(t, 1)
	defer eng.Close()
	srv := serve.New(eng, serve.Config{})
	tracer := srv.Tracer()
	if tracer == nil {
		t.Fatal("default-config server has no tracer")
	}
	srv.Start()
	defer srv.Stop()
	ch, err := srv.Submit(randSeqs(1, 10, 24, 91)[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp := <-ch; resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if got := tracer.Len(); got != 1 {
		t.Fatalf("ring holds %d traces, want 1", got)
	}
	var jsonl bytes.Buffer
	if err := tracer.WriteJSONL(&jsonl, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"kind":"request"`) || !strings.Contains(jsonl.String(), `"name":"exec"`) {
		t.Fatalf("finished trace = %s, want a request trace with an exec span", jsonl.String())
	}
}

// TestDecodeTracingAllocs pins the acceptance criterion that tracing at
// default sampling adds zero allocations to the steady-state decode
// loop: a warmed tracer leases, records and finishes a trace around
// KV-cached DecodeBatch steps without a single allocation.
func TestDecodeTracingAllocs(t *testing.T) {
	const (
		batch     = 4
		promptLen = 4
		steps     = 6
	)
	eng, _ := newLMDeployment(t, 1, "pattern")
	tracer := obs.NewTracer()
	prompts := make([][]int, batch)
	for i := range prompts {
		prompts[i] = randSeqs(1, promptLen, lmCfg.Vocab, int64(101+i))[0]
	}
	states := make([]*transformer.DecodeState, batch)
	for i := range states {
		st, err := eng.NewDecodeState(0)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	outs, err := eng.PrefillBatch(0, states, prompts)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]int, batch)
	for i := range prompts {
		first[i] = outs[i].ArgmaxRow(outs[i].Rows - 1)
	}
	tokens := make([]int, batch)
	pass := func() {
		tr := tracer.StartAt("bench", time.Now())
		for i := range states {
			states[i].TruncateTo(promptLen)
			tokens[i] = first[i]
		}
		for s := 0; s < steps; s++ {
			t0 := time.Now()
			logits, err := eng.DecodeBatch(0, states, tokens)
			if err != nil {
				panic(err)
			}
			if tracer.SampleStep(s) {
				tr.Add("decode_step", t0, time.Since(t0), "step", float64(s), "batch", batch)
			}
			for i := range tokens {
				tokens[i] = logits.ArgmaxRow(i)
			}
		}
		tracer.Finish(tr)
	}
	// warm the ring past its 256 traces so Finish recycles evicted
	// traces into the free list and StartAt stops allocating
	for i := 0; i < 300; i++ {
		tracer.Finish(tracer.StartAt("warm", time.Now()))
	}
	pass()
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Fatalf("traced decode pass allocates %.1f times, want 0", allocs)
	}
}
