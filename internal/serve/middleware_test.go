package serve

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPanicRecovery wraps a panicking handler in the middleware stack: the
// client must get a 500 JSON error, the panic counter must move, and the
// server must keep serving afterwards.
func TestPanicRecovery(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.wrap("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("panic response not error JSON: %q", rec.Body.String())
	}
	if panics := srv.metrics.panics.Value(); panics != 1 {
		t.Errorf("panics counter = %d, want 1", panics)
	}
	// The server stays up.
	rec2, body := doReq(t, srv.Handler(), "GET", "/healthz", nil)
	if rec2.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz after panic: %d %v", rec2.Code, body)
	}
}

// TestAccessLog checks the structured access-log line: method, path,
// status, and duration all present.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv := newTestServer(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	doReq(t, srv.Handler(), "GET", "/healthz", nil)
	line := buf.String()
	if !strings.Contains(line, "GET /healthz 200") {
		t.Errorf("access log missing method/path/code: %q", line)
	}
}

// TestMetricsEndpoint scrapes /metrics after known traffic and checks the
// Prometheus text rendering of every metric family.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	doReq(t, h, "GET", "/healthz", nil)
	doReq(t, h, "POST", "/score", `{"subject":"ghost","relation":"r0","object":"e2"}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`kgserve_requests_total{route="/healthz",code="200"} 1`,
		`kgserve_requests_total{route="/score",code="404"} 1`,
		`kgserve_request_duration_seconds_bucket{route="/healthz",le="+Inf"} 1`,
		`kgserve_request_duration_seconds_count{route="/healthz"} 1`,
		`kgserve_in_flight{route="/metrics"} 1`,
		"kgserve_cache_hits_total 0",
		"kgserve_cache_misses_total 0",
		"kgserve_cache_evictions_total 0",
		"kgserve_singleflight_dedup_total 0",
		"kgserve_discover_rejected_total 0",
		"kgserve_panics_total 0",
		"# TYPE kgserve_request_duration_seconds histogram",
		"# TYPE kgserve_in_flight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type %q", ct)
	}
}
