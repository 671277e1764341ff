package kernel

import (
	"sync/atomic"

	"rt3/internal/mat"
	"rt3/internal/obs"
)

// buildsTotal counts kernels constructed through a Registry.
var buildsTotal atomic.Int64

// RegisterMetrics exposes the process-global execution counters of the
// kernel layer on an obs registry: kernels built through the format
// registry, the fork-join executor under them (mat.Fork) and which twin
// of the lane kernel the host selected. Register them on at most one
// registry per exposition endpoint.
func RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("rt3_kernel_builds_total",
		"Kernels constructed through the format registry.",
		func() float64 { return float64(buildsTotal.Load()) })
	reg.CounterFunc("rt3_mat_parallel_regions_total",
		"Parallel regions (kernel products, attention, GELU) fanned out to the mat.Fork helpers.",
		func() float64 { return float64(mat.ForkStats().Regions) })
	reg.CounterFunc("rt3_mat_parallel_inline_busy_total",
		"Parallel regions run inline because the helpers were serving another caller.",
		func() float64 { return float64(mat.ForkStats().InlineBusy) })
	reg.CounterFunc("rt3_mat_parallel_helped_total",
		"Fanned-out regions a helper ran a span of; well below regions_total, the host is not granting a second core.",
		func() float64 { return float64(mat.ForkStats().Helped) })
	reg.CounterFunc("rt3_mat_parallel_wakes_total",
		"Helpers woken from the parking lot: regions that arrived after the executor had gone idle.",
		func() float64 { return float64(mat.ForkStats().Wakes) })
	reg.GaugeFunc("rt3_mat_lane_isa",
		"Always 1; isa names the kernel twin mat.GemmLanes runs on this host (avx512, avx or go).",
		func() float64 { return 1 }, obs.L("isa", mat.LaneISA()))
}
