package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAdmin(t *testing.T, health, ready func() error) (*httptest.Server, *Registry, *Tracer) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("rt3_requests_total", "Requests served.").Add(5)
	reg.Histogram("rt3_request_latency_ms", "Latency.", HistogramOpts{}).Observe(1.5)
	tr := NewTracer()
	trace := tr.StartAt("req", time.Now())
	trace.Add("exec", time.Now(), time.Millisecond, "batch", 2, "", 0)
	tr.Finish(trace)
	srv := httptest.NewServer(NewAdminMux(AdminOptions{
		Registries: []*Registry{reg},
		Tracer:     tr,
		Health:     health,
		Ready:      ready,
	}))
	t.Cleanup(srv.Close)
	return srv, reg, tr
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestAdminMetricsAndHealth(t *testing.T) {
	srv, _, _ := newTestAdmin(t, nil, nil)

	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics content-type %q", hdr.Get("Content-Type"))
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, "rt3_requests_total 5") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	code, body, _ = get(t, srv.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestAdminHealthFailure(t *testing.T) {
	srv, _, _ := newTestAdmin(t, func() error { return errors.New("crashed") }, nil)
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "crashed") {
		t.Fatalf("/healthz = %d %q, want 503 crashed", code, body)
	}
}

// TestAdminReadiness pins the liveness/readiness split: a draining node
// fails /readyz (routers pull it from rotation) while /healthz stays OK
// (the process is functional; no restart wanted).
func TestAdminReadiness(t *testing.T) {
	srv, _, _ := newTestAdmin(t, nil, func() error { return errors.New("draining") })
	code, body, _ := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz = %d %q, want 503 draining", code, body)
	}
	code, body, _ = get(t, srv.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok while draining", code, body)
	}
}

func TestAdminTrace(t *testing.T) {
	srv, _, _ := newTestAdmin(t, nil, nil)

	code, body, _ := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var line traceExport
	if err := json.Unmarshal([]byte(strings.SplitN(body, "\n", 2)[0]), &line); err != nil {
		t.Fatalf("/trace JSONL does not parse: %v\n%s", err, body)
	}
	if line.Kind != "req" {
		t.Fatalf("/trace kind = %q", line.Kind)
	}

	code, body, _ = get(t, srv.URL+"/trace?format=chrome&n=1")
	if code != http.StatusOK {
		t.Fatalf("/trace?format=chrome status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("/trace chrome output bad: %v\n%s", err, body)
	}

	code, _, _ = get(t, srv.URL+"/trace?format=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("/trace?format=bogus status %d, want 400", code)
	}
	code, _, _ = get(t, srv.URL+"/trace?n=x")
	if code != http.StatusBadRequest {
		t.Fatalf("/trace?n=x status %d, want 400", code)
	}
}

func TestAdminPprof(t *testing.T) {
	srv, _, _ := newTestAdmin(t, nil, nil)
	code, body, _ := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profiles") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _, _ = get(t, srv.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestAdminEmptyOptions(t *testing.T) {
	srv := httptest.NewServer(NewAdminMux(AdminOptions{}))
	defer srv.Close()
	code, _, _ := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("empty /metrics status %d", code)
	}
	code, _, _ = get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("empty /healthz status %d", code)
	}
	code, _, _ = get(t, srv.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("empty /readyz status %d", code)
	}
	code, _, _ = get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("empty /trace status %d", code)
	}
}
