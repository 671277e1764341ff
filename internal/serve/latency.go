package serve

import (
	"fmt"
	"strings"
	"sync"

	"rt3/internal/metrics"
	"rt3/internal/obs"
)

// recentWindow bounds the sliding latency sample fed to the policy.
const recentWindow = 256

// LevelStats summarizes completed requests at one V/F level. Total
// latency (queue wait + execution) feeds the quantiles; the queue-wait
// and execution components are additionally tracked separately so
// batching delay and kernel time are observable on their own.
type LevelStats struct {
	Level  string
	Count  int
	MeanMS float64
	P50MS  float64
	P95MS  float64
	P99MS  float64
	// MeanQueueMS is mean admission-to-dispatch wait; MeanExecMS is mean
	// packed-forward execution time. MeanMS = MeanQueueMS + MeanExecMS.
	MeanQueueMS float64
	MeanExecMS  float64
}

// Recorder accumulates serving observations: per-level request latencies
// (queue wait and execution recorded separately), batch sizes and fill
// ratios, queue drops, generated tokens, and reconfiguration events.
// It is a façade over obs registry instruments — every counter and sum
// lives in a Registry and is scraped via /metrics — plus two sample
// stores the registry cannot carry losslessly: exact per-level latency
// slices (Snapshot/Overall quantiles are exact, not bucketed) and the
// sliding telemetry windows the level policies and the closed-loop
// autotuner decide on. All methods are safe for concurrent use.
type Recorder struct {
	reg *obs.Registry

	mu         sync.Mutex
	levelNames []string
	perLevel   [][]float64 // total (queue + execution) latency ms

	// sliding telemetry windows across levels (recentWindow samples)
	recent      *metrics.Window // total latency ms
	recentQueue *metrics.Window // queue-wait component ms
	recentExec  *metrics.Window // execution component ms
	recentN     *metrics.Window // dispatched batch sizes
	recentCap   *metrics.Window // dispatched batch capacities (MaxBatch)

	// registry-backed instruments (atomic; not guarded by mu)
	reqs        []*obs.Counter // rt3_requests_total{level}
	queueSum    []*obs.Counter // rt3_queue_wait_ms_total{level}
	execSum     []*obs.Counter // rt3_exec_ms_total{level}
	latencyH    *obs.Histogram // rt3_request_latency_ms
	queueH      *obs.Histogram // rt3_queue_wait_ms
	execH       *obs.Histogram // rt3_exec_ms
	tokens      *obs.Counter   // rt3_gen_tokens_total
	drops       *obs.Counter   // rt3_requests_dropped_total
	batches     *obs.Counter   // rt3_batches_total
	batchReqs   *obs.Counter   // rt3_batched_requests_total
	batchCap    *obs.Counter   // rt3_batch_capacity_total
	switches    *obs.Counter   // rt3_switches_total
	switchModel *obs.Counter   // rt3_switch_model_ms_total
	switchStall *obs.Histogram // rt3_switch_stall_ms (wall build and install)
}

// NewRecorderOn sizes a recorder for the given level names, registering
// its instruments on reg.
func NewRecorderOn(reg *obs.Registry, levelNames []string) *Recorder {
	r := &Recorder{
		reg:         reg,
		levelNames:  levelNames,
		perLevel:    make([][]float64, len(levelNames)),
		recent:      metrics.NewWindow(recentWindow),
		recentQueue: metrics.NewWindow(recentWindow),
		recentExec:  metrics.NewWindow(recentWindow),
		recentN:     metrics.NewWindow(recentWindow),
		recentCap:   metrics.NewWindow(recentWindow),

		latencyH: reg.Histogram("rt3_request_latency_ms", "Admission-to-completion latency, all levels.", obs.HistogramOpts{}),
		queueH:   reg.Histogram("rt3_queue_wait_ms", "Admission-to-dispatch wait, all levels.", obs.HistogramOpts{}),
		execH:    reg.Histogram("rt3_exec_ms", "Packed-forward execution time, all levels.", obs.HistogramOpts{}),
		tokens:   reg.Counter("rt3_gen_tokens_total", "Generated tokens (generation mode)."),
		drops:    reg.Counter("rt3_requests_dropped_total", "Requests rejected at admission."),
		batches:  reg.Counter("rt3_batches_total", "Dispatched dynamic batches."),
		batchReqs: reg.Counter("rt3_batched_requests_total",
			"Requests dispatched through dynamic batches."),
		batchCap: reg.Counter("rt3_batch_capacity_total",
			"Sum of MaxBatch across dispatched batches (fill denominator)."),
		switches: reg.Counter("rt3_switches_total", "Live pattern-set/V/F reconfigurations."),
		switchModel: reg.Counter("rt3_switch_model_ms_total",
			"Cumulative modeled pattern-swap cost."),
		switchStall: reg.Histogram("rt3_switch_stall_ms",
			"Measured per-switch wall time once the workers are drained: the kernel install, and a level's build on its first switch.", obs.HistogramOpts{}),
	}
	for _, name := range levelNames {
		lbl := obs.L("level", name)
		r.reqs = append(r.reqs, reg.Counter("rt3_requests_total", "Requests completed.", lbl))
		r.queueSum = append(r.queueSum, reg.Counter("rt3_queue_wait_ms_total",
			"Cumulative queue wait.", lbl))
		r.execSum = append(r.execSum, reg.Counter("rt3_exec_ms_total",
			"Cumulative execution time.", lbl))
	}
	return r
}

// Metrics returns the registry backing the recorder's instruments.
func (r *Recorder) Metrics() *obs.Registry { return r.reg }

// Observe records one completed request at the given level: queueMS is
// the admission-to-dispatch wait, execMS the packed-forward execution
// time it rode in. Their sum enters the latency quantiles.
func (r *Recorder) Observe(level int, queueMS, execMS float64) {
	totalMS := queueMS + execMS
	// the sums under the lock Snapshot reads them under, so its means
	// divide them by the count of the same requests
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs[level].Inc()
	r.queueSum[level].Add(queueMS)
	r.execSum[level].Add(execMS)
	r.latencyH.Observe(totalMS)
	r.queueH.Observe(queueMS)
	r.execH.Observe(execMS)
	r.perLevel[level] = append(r.perLevel[level], totalMS)
	r.recent.Push(totalMS)
	r.recentQueue.Push(queueMS)
	r.recentExec.Push(execMS)
}

// ObserveBatch records one dispatched batch of n requests against the
// configured maximum batch size (the fill denominator).
func (r *Recorder) ObserveBatch(n, maxBatch int) {
	r.batches.Inc()
	r.batchReqs.Add(float64(n))
	r.batchCap.Add(float64(maxBatch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recentN.Push(float64(n))
	r.recentCap.Push(float64(maxBatch))
}

// ObserveTokens records n generated tokens (generation mode; the decode
// worker calls it once per completed sequence).
func (r *Recorder) ObserveTokens(n int) {
	r.tokens.Add(float64(n))
}

// Counters returns the cumulative completed-request and generated-token
// counts. The autotuner differences successive reads to derive
// throughput rates per control tick.
func (r *Recorder) Counters() (completed, tokens int64) {
	for _, c := range r.reqs {
		completed += int64(c.Value())
	}
	return completed, int64(r.tokens.Value())
}

// ObserveDrop records one request rejected at admission.
func (r *Recorder) ObserveDrop() {
	r.drops.Inc()
}

// ObserveSwitch records one live reconfiguration: the modeled pattern-set
// swap cost and the measured kernel-install time, both milliseconds.
func (r *Recorder) ObserveSwitch(modelMS, wallMS float64) {
	r.switches.Inc()
	r.switchModel.Add(modelMS)
	r.switchStall.Observe(wallMS)
}

// WindowStats digests the sliding telemetry window: latency quantiles of
// the most recent completions, split into queue-wait and execution
// components, plus the recent batch fill ratio. An empty window (no
// completions yet, or none since the recorder was built) is all zeros
// with Samples == 0 — consumers must treat that as "no signal", not as
// zero latency.
type WindowStats struct {
	Samples int // completions currently in the window

	// Total admission-to-completion latency quantiles, ms.
	P50MS, P95MS, P99MS float64
	// Queue-wait component quantiles, ms.
	QueueP50MS, QueueP99MS float64
	// Execution component quantiles, ms.
	ExecP50MS, ExecP99MS float64

	// FillRatio is recent dispatched requests over recent dispatched
	// batch capacity, in [0, 1]; 0 when no batch is in the window.
	FillRatio float64
}

// RecentStats snapshots the sliding telemetry window — the live signal
// set the closed-loop autotuner converts into its RL state each control
// tick.
func (r *Recorder) RecentStats() WindowStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := WindowStats{Samples: r.recent.Len()}
	if st.Samples > 0 {
		st.P50MS = r.recent.Quantile(0.50)
		st.P95MS = r.recent.Quantile(0.95)
		st.P99MS = r.recent.Quantile(0.99)
		st.QueueP50MS = r.recentQueue.Quantile(0.50)
		st.QueueP99MS = r.recentQueue.Quantile(0.99)
		st.ExecP50MS = r.recentExec.Quantile(0.50)
		st.ExecP99MS = r.recentExec.Quantile(0.99)
	}
	if c := r.recentCap.Sum(); c > 0 {
		st.FillRatio = r.recentN.Sum() / c
	}
	return st
}

// Drops returns the rejected-request count.
func (r *Recorder) Drops() int {
	return int(r.drops.Value())
}

// Switches returns the switch count and cumulative (modeled, wall) ms.
func (r *Recorder) Switches() (int, float64, float64) {
	return int(r.switches.Value()), r.switchModel.Value(), r.switchStall.Sum()
}

// MeanBatch returns the mean dispatched batch size (0 when none).
func (r *Recorder) MeanBatch() float64 {
	if n := r.batches.Value(); n > 0 {
		return r.batchReqs.Value() / n
	}
	return 0
}

// FillRatio returns dispatched requests over dispatched batch capacity
// (mean batch size / MaxBatch), in [0, 1]; 0 when nothing dispatched.
// Low fill means the packed forwards run shorter than the configured
// fusion width, so the unused capacity is visible directly instead of
// hiding inside the latency numbers.
func (r *Recorder) FillRatio() float64 {
	if c := r.batchCap.Value(); c > 0 {
		return r.batchReqs.Value() / c
	}
	return 0
}

// Snapshot returns per-level latency digests for levels that served at
// least one request, bundle order.
func (r *Recorder) Snapshot() []LevelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []LevelStats
	for i, lat := range r.perLevel {
		if len(lat) == 0 {
			continue
		}
		var sum float64
		for _, v := range lat {
			sum += v
		}
		out = append(out, LevelStats{
			Level:       r.levelNames[i],
			Count:       len(lat),
			MeanMS:      sum / float64(len(lat)),
			P50MS:       metrics.Quantile(lat, 0.50),
			P95MS:       metrics.Quantile(lat, 0.95),
			P99MS:       metrics.Quantile(lat, 0.99),
			MeanQueueMS: r.queueSum[i].Value() / float64(len(lat)),
			MeanExecMS:  r.execSum[i].Value() / float64(len(lat)),
		})
	}
	return out
}

// Overall returns the cumulative all-levels latency digest (Level is
// "all"; the zero value when nothing has completed). Unlike Snapshot it
// pools every request regardless of the level it ran at, so run-level
// comparisons (e.g. the autotune benchmark's arms) read one number.
func (r *Recorder) Overall() LevelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []float64
	var queueSum, execSum float64
	for i, lat := range r.perLevel {
		all = append(all, lat...)
		queueSum += r.queueSum[i].Value()
		execSum += r.execSum[i].Value()
	}
	if len(all) == 0 {
		return LevelStats{}
	}
	var sum float64
	for _, v := range all {
		sum += v
	}
	n := float64(len(all))
	return LevelStats{
		Level:       "all",
		Count:       len(all),
		MeanMS:      sum / n,
		P50MS:       metrics.Quantile(all, 0.50),
		P95MS:       metrics.Quantile(all, 0.95),
		P99MS:       metrics.Quantile(all, 0.99),
		MeanQueueMS: queueSum / n,
		MeanExecMS:  execSum / n,
	}
}

// Summary is what a server's recorder saw up to one instant — what a
// demo or a bench arm prints and scores after its load has drained.
type Summary struct {
	Levels []LevelStats
	// Overall pools every request regardless of level (Level == "all").
	Overall LevelStats

	Switches      int
	SwitchModelMS float64 // modeled pattern-swap cost, cumulative
	SwitchWallMS  float64 // measured switch wall time (first-switch builds and installs), cumulative

	MeanBatch, FillRatio float64
	BatteryFraction      float64
}

// Summary snapshots the recorder and the battery.
func (s *Server) Summary() Summary {
	sum := Summary{
		Levels:          s.rec.Snapshot(),
		Overall:         s.rec.Overall(),
		MeanBatch:       s.rec.MeanBatch(),
		FillRatio:       s.rec.FillRatio(),
		BatteryFraction: s.BatteryFraction(),
	}
	sum.Switches, sum.SwitchModelMS, sum.SwitchWallMS = s.rec.Switches()
	return sum
}

// String renders the summary in the repo's table style: the per-level
// digest as an aligned table, then the switching and batching totals.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %10s %10s %10s %10s\n",
		"level", "requests", "mean_ms", "queue_ms", "exec_ms", "p50_ms", "p95_ms", "p99_ms")
	for _, l := range s.Levels {
		fmt.Fprintf(&b, "%-6s %8d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			l.Level, l.Count, l.MeanMS, l.MeanQueueMS, l.MeanExecMS, l.P50MS, l.P95MS, l.P99MS)
	}
	fmt.Fprintf(&b, "switches %d  modeled swap cost %.3f ms  kernel build+install %.3f ms\n",
		s.Switches, s.SwitchModelMS, s.SwitchWallMS)
	fmt.Fprintf(&b, "mean batch %.1f  fill %.0f%%  battery %.0f%%\n",
		s.MeanBatch, s.FillRatio*100, s.BatteryFraction*100)
	return b.String()
}
