package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rt3/internal/serve"
)

// runOpts selects one run of one workload.
type runOpts struct {
	seed     int64
	seconds  float64 // main-phase length the request count is scaled to
	scale    float64 // further multiplier on request counts (-scale)
	trace    bool
	traceOut string
}

// runRecord is everything one run measured.
type runRecord struct {
	Workload   string  `json:"workload"`
	Trace      int     `json:"trace"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Requests   int     `json:"requests"`
	WallS      float64 `json:"wall_s"` // timed main phase
	RunS       float64 `json:"run_s"`  // whole process, set-up and checks included
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	Checked    int     `json:"outputs_checked"`
	OutputHash string  `json:"output_hash,omitempty"`
	// mean reference-unit time over its nominal time, in the set-up and
	// timed phases: the end-to-end times were divided, the rates
	// multiplied, by these (hostspeed.go)
	SetupSlowdown float64   `json:"setup_host_slowdown"`
	HostSlowdown  float64   `json:"host_slowdown"`
	Metrics       metricSet `json:"metrics"`
}

// sample is one request as the client saw it.
type sample struct {
	submit, reply int64 // ns since the phase epoch
	resp          serve.GenResponse
	err           error // admission error (request refused)
}

func (s sample) latencyMS() float64 { return float64(s.reply-s.submit) / 1e6 }
func (s sample) ttftMS() float64    { return s.resp.QueueMS + s.resp.PrefillMS }

// closedLoop drives reqs through srv with a fixed number of clients,
// each submitting its next request when the previous reply arrives and
// parked on the reply channel in between. Requests are handed out in
// index order. onReply, when set, runs on the client after each reply.
func closedLoop(srv *serve.Server, reqs []genRequest, clients int, epoch time.Time, onReply func()) ([]sample, time.Duration) {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.submit = time.Since(epoch).Nanoseconds()
				ch, err := srv.SubmitGenOpts(reqs[i].prompt, reqs[i].opts)
				if err != nil {
					s.err = err
					s.reply = time.Since(epoch).Nanoseconds()
				} else {
					s.resp = <-ch
					s.reply = time.Since(epoch).Nanoseconds()
				}
				if onReply != nil {
					onReply()
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// dance runs the dvfs controller beside a closed loop: after every
// switchEvery-th reply it calls Server.SwitchTo along the ladder and
// times the call. It stops switching once fewer requests remain than
// there are clients, so every stall is measured under full load.
func dance(srv *serve.Server, w workload, reqs []genRequest, epoch time.Time) ([]sample, time.Duration, []span, error) {
	// one send per request, so a client never blocks on the controller
	notify := make(chan struct{}, len(reqs))
	var stalls []span
	var switchErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		replies := 0
		for range notify {
			replies++
			if replies%w.switchEvery != 0 || replies > len(reqs)-w.clients || switchErr != nil {
				continue
			}
			level := w.ladder[len(stalls)%len(w.ladder)]
			start := time.Since(epoch).Nanoseconds()
			if _, err := srv.SwitchTo(level); err != nil {
				switchErr = err
				continue
			}
			stalls = append(stalls, span{
				kind: spanSwitch, level: int8(level), start: start,
				dur: time.Since(epoch).Nanoseconds() - start, parent: -1, inner: int64(len(stalls)),
			})
		}
	}()
	samples, wall := closedLoop(srv, reqs, w.clients, epoch, func() { notify <- struct{}{} })
	close(notify)
	<-done
	return samples, wall, stalls, switchErr
}

// counters snapshots the public counters whose change over the timed
// phase feeds the per-layer metrics.
type counters struct {
	dec                       serve.DecodeStats
	switches                  int
	switchInstallMS           float64 // Recorder's summed kernel-install wall time
	lookups, hits, hitRows    int64
	insertedRows, evictedRows int64
	mallocs                   uint64
	modelSpans, kernSpans     int
}

func snapshot(d *deployment, tr *tracer) counters {
	c := counters{dec: d.eng.DecodeStats()}
	c.switches, _, c.switchInstallMS = d.srv.Recorder().Switches()
	if st, ok := d.srv.PrefixCacheStats(); ok {
		c.lookups, c.hits, c.hitRows = st.Lookups, st.Hits, st.HitRows
		c.insertedRows, c.evictedRows = st.InsertedRows, st.EvictedRows
	}
	if tr != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		c.mallocs = m.Mallocs
		c.modelSpans, c.kernSpans = len(tr.model), len(tr.kern)
	}
	return c
}

// setupRepeats is how many complete set-ups an untraced run performs;
// setup_s is their median. A traced run sets up once.
const setupRepeats = 5

// runWorkload performs one run: set-up, warm-up, the timed closed loop,
// the output checks, and the metrics of the requested kind.
func runWorkload(sh shape, w workload, o runOpts) (*runRecord, error) {
	procStart := time.Now()
	host := startHostRef(procStart)
	defer host.end()
	cfg := serveConfig(w.cacheRows)

	var tr *tracer
	if o.trace {
		var err error
		if tr, err = newTracer(); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over in an untraced run: setup_s is the
	// median, and the last deployment built is the one measured.
	var d *deployment
	var setupS []float64
	setups := setupRepeats
	if o.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var err error
		if d, err = buildDeployment(sh, cfg, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.setup.totalS)
	}
	defer d.close()
	setupTo := time.Since(procStart).Nanoseconds()

	n := w.count(o.seconds, o.scale)
	warm, reqs := w.generate(o.seed, n, sh.cfg.Vocab)
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	closedLoop(d.srv, warm, w.clients, epoch, nil)

	// peak_rss_mb is the high-water mark of the timed phase alone: the
	// garbage of the repeated set-ups before it and of the dense
	// references after it is the benchmark's, not the server's
	runtime.GC()
	debug.FreeOSMemory()
	resetErr := resetPeakRSS()
	before := snapshot(d, tr)
	timedFrom := time.Since(procStart).Nanoseconds()
	var samples []sample
	var wall time.Duration
	var stalls []span
	if w.steady() {
		samples, wall = closedLoop(d.srv, reqs, w.clients, epoch, nil)
	} else {
		var err error
		if samples, wall, stalls, err = dance(d.srv, w, reqs, epoch); err != nil {
			return nil, fmt.Errorf("switch: %w", err)
		}
	}
	after := snapshot(d, tr)
	host.end()
	peakRSS, peakErr := peakRSSMB()
	if err := errors.Join(resetErr, peakErr); err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}

	rec := &runRecord{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Requests: n, WallS: wall.Seconds(), Attempted: n,
		SetupSlowdown: host.slowdown(0, setupTo),
		HostSlowdown:  host.slowdown(timedFrom, timedFrom+wall.Nanoseconds()),
	}
	failed := make([]bool, n)
	refused := 0
	for i, s := range samples {
		switch {
		case s.err != nil:
			refused++
			failed[i] = true
		case s.resp.Err != nil, len(s.resp.Tokens) != reqs[i].opts.MaxTokens:
			failed[i] = true
		// the server's own split of the request must fit inside what
		// the client measured (0.01 ms covers its microsecond rounding)
		case s.resp.QueueMS+s.resp.PrefillMS+s.resp.DecodeMS > s.latencyMS()+0.01:
			failed[i] = true
		}
	}
	checked, mismatched, err := checkOutputs(d, w, o.seed, reqs, samples, failed)
	if err != nil {
		return nil, err
	}
	rec.Checked = checked
	for _, f := range failed {
		if f {
			rec.Failed++
		}
	}
	if !w.steady() { // the probe requests are not among the samples
		rec.Attempted += checked
		rec.Failed += mismatched
	}
	if w.steady() {
		rec.OutputHash = hashOutputs(samples)
	}

	timed := collectTimings(samples, failed)
	if o.trace {
		rec.Trace = 1
		rec.Metrics = newMetricSet(perLayer)
		layerMetrics(rec.Metrics, d, tr, reqs, timed, stalls, wall, before, after, refused)
		// per-layer times are as measured; this is the factor to read them by
		rec.Metrics.set("bench.host_slowdown", rec.HostSlowdown, 0)
		if err := probes(rec.Metrics, d, w, o); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeTrace(o.traceOut, append(requestSpans(samples), stalls...)); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	} else {
		rec.Metrics = newMetricSet(endToEnd)
		endToEndMetrics(rec.Metrics, reqs, samples, failed, timed, median(setupS)/rec.SetupSlowdown, peakRSS, rec.HostSlowdown)
	}
	rec.RunS = time.Since(procStart).Seconds()
	return rec, nil
}

// timings are the per-request times of the replies that did not fail.
type timings struct {
	ttft, tpot, latency, queue []float64 // ms; tpot only of replies with 2+ tokens
}

func collectTimings(samples []sample, failed []bool) timings {
	var t timings
	for i, s := range samples {
		if failed[i] {
			continue
		}
		t.ttft = append(t.ttft, s.ttftMS())
		t.latency = append(t.latency, s.latencyMS())
		t.queue = append(t.queue, s.resp.QueueMS)
		if k := len(s.resp.Tokens); k > 1 {
			t.tpot = append(t.tpot, (s.latencyMS()-s.ttftMS())/float64(k-1))
		}
	}
	return t
}

// endToEndMetrics fills the untraced run's metrics from the whole timed
// phase: tokens over the time from the first submit to the last reply,
// and the latency percentiles. Every time is divided and every rate
// multiplied by slow, the host's slowdown over the same phase
// (hostspeed.go); setupS comes in already divided by the set-up's.
func endToEndMetrics(ms metricSet, reqs []genRequest, samples []sample, failed []bool, t timings, setupS, peakRSS, slow float64) {
	first, last := int64(1<<62), int64(0)
	var promptTok, outTok float64
	for i, s := range samples {
		if failed[i] {
			continue
		}
		first, last = min(first, s.submit), max(last, s.reply)
		promptTok += float64(len(reqs[i].prompt))
		outTok += float64(len(s.resp.Tokens))
	}
	seconds := float64(last-first) / 1e9 / slow
	latency := make([]float64, len(t.latency))
	for i, l := range t.latency {
		latency[i] = l / slow
	}
	ms.set("setup_s", setupS, 0)
	ms.set("out_tok_s", ratio(outTok, seconds), len(t.latency))
	ms.set("total_tok_s", ratio(outTok+promptTok, seconds), len(t.latency))
	ms.setQuantile("latency_ms_p50", latency, 0.50)
	ms.setQuantile("latency_ms_p90", latency, 0.90)
	ms.set("peak_rss_mb", peakRSS, 0)
}

// checkTokens is how many leading tokens of a reply are compared with
// the masked dense reference.
const checkTokens = 8

// checkOutputs compares served tokens with the dense reference. Steady
// workloads check a seeded sample of the timed replies at the pinned
// level and mark mismatches in failed; dvfs_dance, whose replies span
// level switches, instead serves two fresh probe requests at each level
// once the ladder is done and returns their mismatches.
func checkOutputs(d *deployment, w workload, seed int64, reqs []genRequest, samples []sample, failed []bool) (checked, probeMismatches int, err error) {
	reference := func(level int, r genRequest) ([]int, error) {
		if r.opts.SplitAt > 0 {
			return d.srv.DenseGenReferenceSplit(level, r.prompt[:r.opts.SplitAt], r.prompt[r.opts.SplitAt:], checkTokens, -1)
		}
		return d.srv.DenseGenReference(level, r.prompt, checkTokens, -1)
	}
	if w.steady() {
		rng := newRand(seed ^ 0x5eed)
		for _, i := range rng.Perm(len(reqs))[:min(4, len(reqs))] {
			if failed[i] {
				continue
			}
			want, err := reference(0, reqs[i])
			if err != nil {
				return 0, 0, fmt.Errorf("dense reference: %w", err)
			}
			checked++
			if !hasPrefix(samples[i].resp.Tokens, want) {
				failed[i] = true
			}
		}
		return checked, 0, nil
	}
	_, probesReqs := w.generate(seed+1, 2*len(d.sh.levels), d.sh.cfg.Vocab)
	for level := range d.sh.levels {
		if _, err := d.srv.SwitchTo(level); err != nil {
			return 0, 0, fmt.Errorf("switch to %s: %w", d.sh.levels[level], err)
		}
		for _, r := range probesReqs[2*level : 2*level+2] {
			r.opts.MaxTokens = checkTokens
			ch, err := d.srv.SubmitGenOpts(r.prompt, r.opts)
			if err != nil {
				return 0, 0, fmt.Errorf("probe request: %w", err)
			}
			resp := <-ch
			want, err := reference(level, r)
			if err != nil {
				return 0, 0, fmt.Errorf("dense reference: %w", err)
			}
			checked++
			if resp.Err != nil || !hasPrefix(resp.Tokens, want) {
				probeMismatches++
			}
		}
	}
	return checked, probeMismatches, nil
}

// hasPrefix reports whether got starts with the reference tokens (the
// reference may be shorter than the reply, never longer).
func hasPrefix(got, want []int) bool {
	if len(got) < len(want) {
		want = want[:len(got)]
	}
	for i, t := range want {
		if got[i] != t {
			return false
		}
	}
	return len(got) > 0
}

// hashOutputs folds every reply's tokens, in request order, into one
// FNV-64 value: the same seed must give the same hash on any commit
// that leaves outputs unchanged.
func hashOutputs(samples []sample) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, s := range samples {
		for _, t := range s.resp.Tokens {
			buf[0], buf[1], buf[2], buf[3] = byte(t), byte(t>>8), byte(t>>16), byte(t>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// requestSpans turns the client-side samples into spans for the trace
// file; inner carries the request index all its spans share.
func requestSpans(samples []sample) []span {
	out := make([]span, len(samples))
	for i, s := range samples {
		out[i] = span{
			kind: spanRequest, level: int8(s.resp.Level), start: s.submit, dur: s.reply - s.submit,
			rows: int32(len(s.resp.Tokens)), parent: -1, inner: int64(i),
		}
	}
	return out
}
