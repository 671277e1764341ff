package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json holds
// the same names with their direction and bound; a unit test keeps the
// two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a caller of the
// server sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"out_tok_s", "tok/s"},
	{"total_tok_s", "tok/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, grouped by the module they
// are measured at. Metrics that do not apply to a workload read 0.
var perLayer = []metricDef{
	{"serve.ttft_ms_p50", "ms"},
	{"serve.ttft_ms_p90", "ms"},
	{"serve.tpot_ms_p50", "ms"},
	{"serve.tpot_ms_p90", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.decode_batch_mean", "rows"},
	{"serve.prefill_batch_mean", "seqs"},
	{"serve.loop_overhead_share", "ratio"},
	{"serve.switch_stall_ms_mean", "ms"},
	{"serve.switch_stall_ms_p90", "ms"},
	{"serve.switch_drain_ms_mean", "ms"},
	{"serve.switch_install_ms_mean", "ms"},
	{"serve.switches", "count"},
	{"serve.refused", "count"},
	{"serve.mallocs_per_req", "count"},
	{"serve.engine_build_ms", "ms"},
	{"serve.first_response_ms", "ms"},

	{"transformer.prefill_ms_p50", "ms"},
	{"transformer.prefill_rows_s", "rows/s"},
	{"transformer.decode_step_ms_p50", "ms"},
	{"transformer.decode_step_ms_p90", "ms"},
	{"transformer.decode_chunk_ms_p50", "ms"},
	{"transformer.decode_chunk_rows_s", "rows/s"},
	{"transformer.busy_share", "ratio"},
	{"transformer.self_share", "ratio"},
	{"transformer.kv_rows_read_per_tok", "rows"},
	{"transformer.decode_step_ms_p50.l6", "ms"},
	{"transformer.decode_step_ms_p50.l4", "ms"},
	{"transformer.decode_step_ms_p50.l3", "ms"},
	{"transformer.prefill_rows_s.l6", "rows/s"},
	{"transformer.prefill_rows_s.l4", "rows/s"},
	{"transformer.prefill_rows_s.l3", "rows/s"},

	{"kernel.mul_share", "ratio"},
	{"kernel.calls", "count"},
	{"kernel.gflop_eq_s_small", "gflop/s"},
	{"kernel.gflop_eq_s_large", "gflop/s"},
	{"kernel.stored_share", "ratio"},
	{"kernel.weight_bytes", "bytes"},
	{"kernel.build_ms", "ms"},

	{"spec.radix_hit_share", "ratio"},
	{"spec.radix_hit_rows_share", "ratio"},
	{"spec.radix_inserted_rows", "count"},
	{"spec.radix_evicted_rows", "count"},
	{"spec.radix_used_rows", "count"},
	{"spec.radix_match_load_us_p50", "us"},
	{"spec.radix_insert_us_p50", "us"},

	{"pattern.generate_sets_ms", "ms"},
	{"deploy.encode_decode_ms", "ms"},
	{"deploy.bundle_bytes", "bytes"},
	{"deploy.set_bytes_mean", "bytes"},
	{"rtswitch.modeled_switch_ms_mean", "ms"},

	{"cluster.submit_us_p50", "us"},
	{"cluster.affinity_hit_share", "ratio"},

	{"bench.trace_overhead_share", "ratio"},
	{"bench.host_slowdown", "ratio"},
}

// metricRecord is one measured value; n is the sample count behind a
// percentile or mean (0 for plain counters and ratios).
type metricRecord struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects a run's metrics. It starts with every name of its
// list at 0, so a metric that does not apply is still emitted.
type metricSet map[string]metricRecord

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.name] = metricRecord{Unit: d.unit}
	}
	return ms
}

// set stores a value under a declared name; an undeclared name is a bug
// in the benchmark, and a non-finite value reads as 0 (not applicable).
func (ms metricSet) set(name string, v float64, n int) {
	r, ok := ms[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Value, r.N = v, n
	ms[name] = r
}

// setQuantile stores the p-quantile of xs, or 0 when the sample is too
// small to support it (the count still shows).
func (ms metricSet) setQuantile(name string, xs []float64, p float64) {
	v, err := quantile(xs, p)
	if err != nil {
		v = 0
	}
	ms.set(name, v, len(xs))
}

// minTailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailSamples = 10

var errTooFewSamples = errors.New("bench: too few samples beyond the percentile")

// quantile returns the nearest-rank p-quantile of xs (0 < p < 1). A
// tail percentile (p > 0.5) with fewer than minTailSamples samples
// beyond it is refused; so is an empty sample.
func quantile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minTailSamples {
		return 0, errTooFewSamples
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the driver measures run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	m := len(sorted)
	if m%2 == 1 {
		return sorted[m/2]
	}
	return (sorted[m/2-1] + sorted[m/2]) / 2
}

// spreadShare is the interquartile distance of xs as a share of their
// median — the driver's steadiness measure. 0 with fewer than 2 values.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// resetPeakRSS sets the process's resident-set high-water mark back to
// its current resident set (Linux: "5" into /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
