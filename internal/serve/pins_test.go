package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestErrorBodiesPinned fixes the bytes of the error replies every decoding
// endpoint shares: the 400 for an unknown field, the 413 for an oversized
// body, and a 404 for an unknown name. A change to how bodies are decoded
// or errors written must leave these bytes alone.
func TestErrorBodiesPinned(t *testing.T) {
	h := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 }).Handler()
	for _, tt := range []struct {
		path, body string
		code       int
		want       string
	}{
		{"/discover", `{"strategy":"graph_degree","bogus":1}`, 400,
			`{"error":"invalid JSON: json: unknown field \"bogus\""}` + "\n"},
		{"/discover", `{"strategy":"` + strings.Repeat("x", 100) + `"}`, 413,
			`{"error":"request body exceeds 64 bytes"}` + "\n"},
		{"/score", `{"subject":"ghost","relation":"r0","object":"e2"}`, 404,
			`{"error":"unknown subject \"ghost\""}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tt.path, strings.NewReader(tt.body)))
		if rec.Code != tt.code || rec.Body.String() != tt.want || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %q (%s), want %d %q", tt.path, tt.body, rec.Code, rec.Body.String(),
				rec.Header().Get("Content-Type"), tt.code, tt.want)
		}
	}
}

// TestMetricsTextPinned fixes the Prometheus text of a fresh server's
// /metrics after fixed counts and fixed durations, so the histogram lines
// are deterministic: the server's own families, then the registry and job
// sections.
func TestMetricsTextPinned(t *testing.T) {
	srv := newTestServer(t, nil)
	m := srv.metrics
	// Three requests served and one in flight, recorded as wrap records them.
	for _, r := range []struct {
		route, code string
		d           time.Duration
	}{{"/query", "200", 3 * time.Millisecond}, {"/query", "404", 700 * time.Millisecond}, {"/discover", "200", 4 * time.Second}} {
		m.inFlight.With(r.route)
		m.requests.With(r.route, r.code).Inc()
		m.latency.With(r.route).Observe(r.d.Seconds())
	}
	m.inFlight.With("/discover").Add(1)
	for _, fp := range []string{"fp-b", "fp-a", "fp-b"} {
		m.modelRequests.With(fp).Inc()
	}
	for _, c := range []*wire.Counter{m.cacheHits, m.cacheMisses, m.cacheMisses, m.cacheEvictions,
		m.dedups, m.rejected, m.panics, m.mutationRejected, m.mutationBatches} {
		c.Inc()
	}
	m.scoreSweeps.Add(7)
	m.batchedSweeps.Add(2)
	m.batchRows.Add(9)
	m.mutationAdds.Add(3)
	m.mutationDeletes.Add(1)
	m.cacheInvalidations.Add(4)
	var b bytes.Buffer
	m.reg.WriteTo(&b)
	if got := strings.ReplaceAll(b.String(), srv.Fingerprint(), "FP"); got != wantMetricsText+wantRegistryJobsText {
		t.Errorf("/metrics:\n%s\nwant:\n%s", got, wantMetricsText+wantRegistryJobsText)
	}
}

const wantMetricsText = `# HELP kgserve_requests_total Requests served, by route and status code.
# TYPE kgserve_requests_total counter
kgserve_requests_total{route="/discover",code="200"} 1
kgserve_requests_total{route="/query",code="200"} 1
kgserve_requests_total{route="/query",code="404"} 1
# HELP kgserve_request_duration_seconds Request latency histogram, by route.
# TYPE kgserve_request_duration_seconds histogram
kgserve_request_duration_seconds_bucket{route="/discover",le="0.001"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.005"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.01"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.05"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.1"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.25"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="0.5"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="1"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="2.5"} 0
kgserve_request_duration_seconds_bucket{route="/discover",le="5"} 1
kgserve_request_duration_seconds_bucket{route="/discover",le="10"} 1
kgserve_request_duration_seconds_bucket{route="/discover",le="+Inf"} 1
kgserve_request_duration_seconds_sum{route="/discover"} 4
kgserve_request_duration_seconds_count{route="/discover"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.001"} 0
kgserve_request_duration_seconds_bucket{route="/query",le="0.005"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.01"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.05"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.1"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.25"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="0.5"} 1
kgserve_request_duration_seconds_bucket{route="/query",le="1"} 2
kgserve_request_duration_seconds_bucket{route="/query",le="2.5"} 2
kgserve_request_duration_seconds_bucket{route="/query",le="5"} 2
kgserve_request_duration_seconds_bucket{route="/query",le="10"} 2
kgserve_request_duration_seconds_bucket{route="/query",le="+Inf"} 2
kgserve_request_duration_seconds_sum{route="/query"} 0.703
kgserve_request_duration_seconds_count{route="/query"} 2
# HELP kgserve_in_flight Requests currently being served, by route.
# TYPE kgserve_in_flight gauge
kgserve_in_flight{route="/discover"} 1
kgserve_in_flight{route="/query"} 0
# HELP kgserve_cache_hits_total Responses served from the LRU cache.
# TYPE kgserve_cache_hits_total counter
kgserve_cache_hits_total 1
# HELP kgserve_cache_misses_total Cacheable requests not found in the LRU cache.
# TYPE kgserve_cache_misses_total counter
kgserve_cache_misses_total 2
# HELP kgserve_cache_evictions_total Entries evicted from the LRU cache.
# TYPE kgserve_cache_evictions_total counter
kgserve_cache_evictions_total 1
# HELP kgserve_singleflight_dedup_total Requests coalesced onto another request's in-flight execution.
# TYPE kgserve_singleflight_dedup_total counter
kgserve_singleflight_dedup_total 1
# HELP kgserve_discover_rejected_total Discover requests refused with 429 because the concurrency limit was reached.
# TYPE kgserve_discover_rejected_total counter
kgserve_discover_rejected_total 1
# HELP kgserve_panics_total Handler panics recovered and converted to 500 responses.
# TYPE kgserve_panics_total counter
kgserve_panics_total 1
# HELP kgserve_ranking_score_sweeps_total Score sweeps run while ranking discovery candidates (one per distinct subject-relation group).
# TYPE kgserve_ranking_score_sweeps_total counter
kgserve_ranking_score_sweeps_total 7
# HELP kgserve_ranking_batched_sweeps_total Relation-blocked batch dispatches: tiled matrix-matrix passes over the entity table.
# TYPE kgserve_ranking_batched_sweeps_total counter
kgserve_ranking_batched_sweeps_total 2
# HELP kgserve_ranking_batch_rows_total Query rows scored through batched passes; rows/dispatches is the amortization factor.
# TYPE kgserve_ranking_batch_rows_total counter
kgserve_ranking_batch_rows_total 9
# HELP kgserve_mutation_batches_total Mutation batches applied by POST /mutate.
# TYPE kgserve_mutation_batches_total counter
kgserve_mutation_batches_total 1
# HELP kgserve_mutation_adds_total Mutation ops that inserted a new triple.
# TYPE kgserve_mutation_adds_total counter
kgserve_mutation_adds_total 3
# HELP kgserve_mutation_deletes_total Mutation ops that removed a present triple.
# TYPE kgserve_mutation_deletes_total counter
kgserve_mutation_deletes_total 1
# HELP kgserve_mutation_rejected_total Mutation batches refused (sequence gap, validation failure, or size limit).
# TYPE kgserve_mutation_rejected_total counter
kgserve_mutation_rejected_total 1
# HELP kgserve_cache_invalidations_total Cache entries dropped because a mutation batch staled them.
# TYPE kgserve_cache_invalidations_total counter
kgserve_cache_invalidations_total 4
# HELP kgserve_model_requests_total Requests routed to each model, by weight fingerprint.
# TYPE kgserve_model_requests_total counter
kgserve_model_requests_total{fingerprint="fp-a"} 1
kgserve_model_requests_total{fingerprint="fp-b"} 2
`

const wantRegistryJobsText = `# HELP kgserve_models Models currently loaded in the registry.
# TYPE kgserve_models gauge
kgserve_models 1
# HELP kgserve_model_info Loaded-model metadata; value is the checkpoint load time in seconds.
# TYPE kgserve_model_info gauge
kgserve_model_info{fingerprint="FP",model="distmult",format="memory",default="true"} 0
# HELP kgserve_jobs Retained async discovery jobs, by state.
# TYPE kgserve_jobs gauge
kgserve_jobs{state="cancelled"} 0
kgserve_jobs{state="done"} 0
kgserve_jobs{state="failed"} 0
kgserve_jobs{state="queued"} 0
kgserve_jobs{state="running"} 0
# HELP kgserve_jobs_submitted_total Async jobs accepted by POST /jobs.
# TYPE kgserve_jobs_submitted_total counter
kgserve_jobs_submitted_total 0
# HELP kgserve_jobs_completed_total Async jobs that finished successfully.
# TYPE kgserve_jobs_completed_total counter
kgserve_jobs_completed_total 0
# HELP kgserve_jobs_failed_total Async jobs that finished with an error.
# TYPE kgserve_jobs_failed_total counter
kgserve_jobs_failed_total 0
# HELP kgserve_jobs_cancelled_total Async jobs cancelled before completing.
# TYPE kgserve_jobs_cancelled_total counter
kgserve_jobs_cancelled_total 0
# HELP kgserve_jobs_evicted_total Finished jobs evicted by the retention policy.
# TYPE kgserve_jobs_evicted_total counter
kgserve_jobs_evicted_total 0
`
