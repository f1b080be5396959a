package serve

import (
	"strconv"

	"repro/internal/wire"
)

// latencyBuckets are the upper bounds (in seconds) of the request-duration
// histogram. They straddle the two regimes the server actually sees:
// sub-millisecond cache hits and multi-second cold discovery sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// metrics holds the handles of the server's metrics, declared in reg; the
// job manager declares its own after them, and /metrics serves reg.
type metrics struct {
	reg                     wire.Registry
	requests, modelRequests wire.Vec[wire.Counter]
	latency                 wire.Vec[wire.Histogram]
	inFlight                wire.Vec[wire.Gauge]

	cacheHits, cacheMisses, cacheEvictions, dedups, rejected, panics *wire.Counter
	scoreSweeps, batchedSweeps, batchRows                            *wire.Counter
	mutationBatches, mutationAdds, mutationDeletes                   *wire.Counter
	mutationRejected, cacheInvalidations                             *wire.Counter
}

// newMetrics declares the server's metrics. views lists the loaded models
// at each scrape: the model registry is the source of truth for what is
// loaded, and scraping must not keep a second copy that can drift.
func newMetrics(views func() []modelView) *metrics {
	m := &metrics{}
	r := &m.reg
	m.requests = r.CounterVec("kgserve_requests_total", "Requests served, by route and status code.", "route", "code")
	m.latency = r.Histogram("kgserve_request_duration_seconds", "Request latency histogram, by route.", latencyBuckets, "route")
	m.inFlight = r.GaugeVec("kgserve_in_flight", "Requests currently being served, by route.", "route")
	m.cacheHits = r.Counter("kgserve_cache_hits_total", "Responses served from the LRU cache.")
	m.cacheMisses = r.Counter("kgserve_cache_misses_total", "Cacheable requests not found in the LRU cache.")
	m.cacheEvictions = r.Counter("kgserve_cache_evictions_total", "Entries evicted from the LRU cache.")
	m.dedups = r.Counter("kgserve_singleflight_dedup_total", "Requests coalesced onto another request's in-flight execution.")
	m.rejected = r.Counter("kgserve_discover_rejected_total", "Discover requests refused with 429 because the concurrency limit was reached.")
	m.panics = r.Counter("kgserve_panics_total", "Handler panics recovered and converted to 500 responses.")
	m.scoreSweeps = r.Counter("kgserve_ranking_score_sweeps_total", "Score sweeps run while ranking discovery candidates (one per distinct subject-relation group).")
	m.batchedSweeps = r.Counter("kgserve_ranking_batched_sweeps_total", "Relation-blocked batch dispatches: tiled matrix-matrix passes over the entity table.")
	m.batchRows = r.Counter("kgserve_ranking_batch_rows_total", "Query rows scored through batched passes; rows/dispatches is the amortization factor.")
	m.mutationBatches = r.Counter("kgserve_mutation_batches_total", "Mutation batches applied by POST /mutate.")
	m.mutationAdds = r.Counter("kgserve_mutation_adds_total", "Mutation ops that inserted a new triple.")
	m.mutationDeletes = r.Counter("kgserve_mutation_deletes_total", "Mutation ops that removed a present triple.")
	m.mutationRejected = r.Counter("kgserve_mutation_rejected_total", "Mutation batches refused (sequence gap, validation failure, or size limit).")
	m.cacheInvalidations = r.Counter("kgserve_cache_invalidations_total", "Cache entries dropped because a mutation batch staled them.")
	// A model's series outlives its unload: a reload of the same weights
	// continues it.
	m.modelRequests = r.CounterVec("kgserve_model_requests_total", "Requests routed to each model, by weight fingerprint.", "fingerprint")
	r.GaugeFunc("kgserve_models", "Models currently loaded in the registry.", nil, func(emit func(any, ...string)) {
		emit(len(views()))
	})
	r.GaugeFunc("kgserve_model_info", "Loaded-model metadata; value is the checkpoint load time in seconds.",
		[]string{"fingerprint", "model", "format", "default"}, func(emit func(any, ...string)) {
			for _, v := range views() {
				emit(v.LoadMS/1000, v.Fingerprint, v.Model, v.Format, strconv.FormatBool(v.Default))
			}
		})
	return m
}
