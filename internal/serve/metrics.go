package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// latencyBuckets are the upper bounds (in seconds) of the request-duration
// histogram. They straddle the two regimes the server actually sees:
// sub-millisecond cache hits and multi-second cold discovery sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// routeStats accumulates per-route request counters. All fields are guarded
// by the owning metrics mutex.
type routeStats struct {
	codes    map[int]uint64
	buckets  []uint64 // parallel to latencyBuckets; observations ≤ bound
	count    uint64
	sum      float64 // total seconds observed
	inFlight int64
}

// metrics aggregates server-wide counters and renders them in the Prometheus
// text exposition format. It is a deliberate stdlib-only stand-in for a
// metrics client library: a single mutex is ample for the counter update
// rates an HTTP handler sees, and the scrape path is read-only.
type metrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats

	// modelRequests counts requests routed to each model, by fingerprint.
	// Entries outlive unloads deliberately: counters are monotonic, and a
	// reload of the same weights continues its series.
	modelRequests map[string]uint64

	cacheHits      uint64
	cacheMisses    uint64
	cacheEvictions uint64
	dedups         uint64 // requests served by another request's in-flight run
	rejected       uint64 // /discover requests refused with 429 (semaphore full)
	panics         uint64 // handler panics converted to 500 by the recovery middleware

	// Mutation counters (POST /mutate).
	mutationBatches    uint64 // batches applied
	mutationAdds       uint64 // ops that inserted a triple not previously present
	mutationDeletes    uint64 // ops that removed a present triple
	mutationRejected   uint64 // batches refused: sequence gap, validation, size
	cacheInvalidations uint64 // cache entries dropped by mutation invalidation

	// Ranking counters, accumulated from every completed discovery run
	// (synchronous /discover and async jobs alike) via observeDiscovery.
	scoreSweeps   uint64 // score sweeps: one per distinct (s, r) candidate group
	batchedSweeps uint64 // relation-blocked batch dispatches (tiled matrix–matrix passes)
	batchRows     uint64 // query rows carried by those batches
}

func newMetrics() *metrics {
	return &metrics{routes: make(map[string]*routeStats), modelRequests: make(map[string]uint64)}
}

func (m *metrics) incModelRequest(fingerprint string) {
	m.mu.Lock()
	m.modelRequests[fingerprint]++
	m.mu.Unlock()
}

// routeLocked returns the stats bucket for route, creating it on first use.
// The caller must hold m.mu.
func (m *metrics) routeLocked(route string) *routeStats {
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{codes: make(map[int]uint64), buckets: make([]uint64, len(latencyBuckets))}
		m.routes[route] = rs
	}
	return rs
}

func (m *metrics) startRequest(route string) {
	m.mu.Lock()
	m.routeLocked(route).inFlight++
	m.mu.Unlock()
}

func (m *metrics) endRequest(route string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	rs := m.routeLocked(route)
	rs.inFlight--
	rs.codes[code]++
	rs.count++
	rs.sum += secs
	for i, bound := range latencyBuckets {
		if secs <= bound {
			rs.buckets[i]++
		}
	}
	m.mu.Unlock()
}

func (m *metrics) add(field *uint64, n uint64) {
	m.mu.Lock()
	*field += n
	m.mu.Unlock()
}

// observeDiscovery folds one completed discovery run's ranking stats into
// the counters.
func (m *metrics) observeDiscovery(st core.Stats) {
	m.mu.Lock()
	m.scoreSweeps += uint64(st.ScoreSweeps)
	m.batchedSweeps += uint64(st.BatchedSweeps)
	m.batchRows += uint64(st.BatchRows)
	m.mu.Unlock()
}

// observeMutation folds one applied batch into the mutation counters.
func (m *metrics) observeMutation(adds, deletes, invalidated int) {
	m.mu.Lock()
	m.mutationBatches++
	m.mutationAdds += uint64(adds)
	m.mutationDeletes += uint64(deletes)
	m.cacheInvalidations += uint64(invalidated)
	m.mu.Unlock()
}

func (m *metrics) incCacheHit()  { m.add(&m.cacheHits, 1) }
func (m *metrics) incCacheMiss() { m.add(&m.cacheMisses, 1) }
func (m *metrics) incEviction()  { m.add(&m.cacheEvictions, 1) }
func (m *metrics) incDedup()     { m.add(&m.dedups, 1) }
func (m *metrics) incRejected()  { m.add(&m.rejected, 1) }
func (m *metrics) incPanic()     { m.add(&m.panics, 1) }

func (m *metrics) incMutationRejected() { m.add(&m.mutationRejected, 1) }

// snapshotCounters returns the cache/flight counters for tests.
func (m *metrics) snapshotCounters() (hits, misses, evictions, dedups, rejected uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cacheHits, m.cacheMisses, m.cacheEvictions, m.dedups, m.rejected
}

// writeTo renders every metric in Prometheus text format (version 0.0.4)
// with deterministic ordering, so scrapes — and test assertions — are
// stable across runs.
func (m *metrics) writeTo(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	fmt.Fprintln(w, "# HELP kgserve_requests_total Requests served, by route and status code.")
	fmt.Fprintln(w, "# TYPE kgserve_requests_total counter")
	for _, r := range routes {
		rs := m.routes[r]
		codes := make([]int, 0, len(rs.codes))
		for c := range rs.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "kgserve_requests_total{route=%q,code=\"%d\"} %d\n", r, c, rs.codes[c])
		}
	}

	fmt.Fprintln(w, "# HELP kgserve_request_duration_seconds Request latency histogram, by route.")
	fmt.Fprintln(w, "# TYPE kgserve_request_duration_seconds histogram")
	for _, r := range routes {
		rs := m.routes[r]
		for i, bound := range latencyBuckets {
			fmt.Fprintf(w, "kgserve_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", r, bound, rs.buckets[i])
		}
		fmt.Fprintf(w, "kgserve_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r, rs.count)
		fmt.Fprintf(w, "kgserve_request_duration_seconds_sum{route=%q} %g\n", r, rs.sum)
		fmt.Fprintf(w, "kgserve_request_duration_seconds_count{route=%q} %d\n", r, rs.count)
	}

	fmt.Fprintln(w, "# HELP kgserve_in_flight Requests currently being served, by route.")
	fmt.Fprintln(w, "# TYPE kgserve_in_flight gauge")
	for _, r := range routes {
		fmt.Fprintf(w, "kgserve_in_flight{route=%q} %d\n", r, m.routes[r].inFlight)
	}

	scalar := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	scalar("kgserve_cache_hits_total", "Responses served from the LRU cache.", m.cacheHits)
	scalar("kgserve_cache_misses_total", "Cacheable requests not found in the LRU cache.", m.cacheMisses)
	scalar("kgserve_cache_evictions_total", "Entries evicted from the LRU cache.", m.cacheEvictions)
	scalar("kgserve_singleflight_dedup_total", "Requests coalesced onto another request's in-flight execution.", m.dedups)
	scalar("kgserve_discover_rejected_total", "Discover requests refused with 429 because the concurrency limit was reached.", m.rejected)
	scalar("kgserve_panics_total", "Handler panics recovered and converted to 500 responses.", m.panics)
	scalar("kgserve_ranking_score_sweeps_total", "Score sweeps run while ranking discovery candidates (one per distinct subject-relation group).", m.scoreSweeps)
	scalar("kgserve_ranking_batched_sweeps_total", "Relation-blocked batch dispatches: tiled matrix-matrix passes over the entity table.", m.batchedSweeps)
	scalar("kgserve_ranking_batch_rows_total", "Query rows scored through batched passes; rows/dispatches is the amortization factor.", m.batchRows)
	scalar("kgserve_mutation_batches_total", "Mutation batches applied by POST /mutate.", m.mutationBatches)
	scalar("kgserve_mutation_adds_total", "Mutation ops that inserted a new triple.", m.mutationAdds)
	scalar("kgserve_mutation_deletes_total", "Mutation ops that removed a present triple.", m.mutationDeletes)
	scalar("kgserve_mutation_rejected_total", "Mutation batches refused (sequence gap, validation failure, or size limit).", m.mutationRejected)
	scalar("kgserve_cache_invalidations_total", "Cache entries dropped because a mutation batch staled them.", m.cacheInvalidations)

	fmt.Fprintln(w, "# HELP kgserve_model_requests_total Requests routed to each model, by weight fingerprint.")
	fmt.Fprintln(w, "# TYPE kgserve_model_requests_total counter")
	fps := make([]string, 0, len(m.modelRequests))
	for fp := range m.modelRequests {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		fmt.Fprintf(w, "kgserve_model_requests_total{fingerprint=%q} %d\n", fp, m.modelRequests[fp])
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w)
	s.writeModelMetrics(w)
	s.writeJobMetrics(w)
}

// writeModelMetrics renders registry gauges from a live snapshot (the
// registry is the source of truth for what is loaded; scraping must not
// keep a second copy that can drift).
func (s *Server) writeModelMetrics(w io.Writer) {
	views := s.modelViews()
	fmt.Fprintln(w, "# HELP kgserve_models Models currently loaded in the registry.")
	fmt.Fprintln(w, "# TYPE kgserve_models gauge")
	fmt.Fprintf(w, "kgserve_models %d\n", len(views))
	fmt.Fprintln(w, "# HELP kgserve_model_info Loaded-model metadata; value is the checkpoint load time in seconds.")
	fmt.Fprintln(w, "# TYPE kgserve_model_info gauge")
	for _, v := range views {
		fmt.Fprintf(w, "kgserve_model_info{fingerprint=%q,model=%q,format=%q,default=\"%t\"} %g\n",
			v.Fingerprint, v.Model, v.Format, v.Default, v.LoadMS/1000)
	}
}

// writeJobMetrics renders the async-job gauges and counters. They come from
// a live jobs.Manager snapshot rather than the metrics struct: job state is
// already tracked there and scraping must not invent a second copy that can
// drift.
func (s *Server) writeJobMetrics(w io.Writer) {
	counts, counters := s.jobs.Snapshot()
	fmt.Fprintln(w, "# HELP kgserve_jobs Retained async discovery jobs, by state.")
	fmt.Fprintln(w, "# TYPE kgserve_jobs gauge")
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "kgserve_jobs{state=%q} %d\n", st, counts[jobs.State(st)])
	}
	scalar := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	scalar("kgserve_jobs_submitted_total", "Async jobs accepted by POST /jobs.", counters.Submitted)
	scalar("kgserve_jobs_completed_total", "Async jobs that finished successfully.", counters.Completed)
	scalar("kgserve_jobs_failed_total", "Async jobs that finished with an error.", counters.Failed)
	scalar("kgserve_jobs_cancelled_total", "Async jobs cancelled before completing.", counters.Cancelled)
	scalar("kgserve_jobs_evicted_total", "Finished jobs evicted by the retention policy.", counters.Evicted)
}
