// Package obs is the observability substrate of the serving stack:
// request-scoped tracing (free-listed span buffers, exportable as JSONL
// or a Chrome trace_event file), a metrics registry of counters, gauges
// and log-linear histograms with Prometheus text exposition,
// a small leveled logger, and an admin HTTP mux serving /metrics,
// /trace, /healthz and net/http/pprof. serve, kernel, rtswitch and the
// autotuner register their instruments here; cmd/rt3serve exposes them
// on -admin-addr. The hot-path contract: recording a span or bumping a
// counter never allocates once buffers are warm, so tracing can stay on
// under the decode loop's 0 allocs/op budget.
package obs
