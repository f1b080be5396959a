// Package serve implements the production HTTP serving layer over a trained
// KGE model and its knowledge graph: triple scoring (with calibrated
// probabilities), rank queries, link-prediction style object queries, and
// on-demand fact discovery.
//
// Beyond the handlers it provides the operational machinery a public
// endpoint needs: server-level read/header/write timeouts and graceful
// drain on shutdown, per-route panic recovery, request-body size limits,
// structured access logging, per-request context deadlines, a semaphore
// bounding concurrent discovery sweeps (overload → 429 + Retry-After), an
// LRU response cache keyed by the model's canonical weight fingerprint plus
// the canonicalized request (a KGE model is a deterministic function of its
// weights, so identical requests against identical weights have identical
// answers), single-flight deduplication so N concurrent identical requests
// trigger exactly one discovery run, and a stdlib-only Prometheus-text
// /metrics endpoint.
//
// Discovery sweeps too long for a synchronous request run through the async
// /jobs API instead (see jobs.go): submissions execute on an internal/jobs
// worker pool with per-relation progress, cancellation, bounded retention of
// results, and — when Config.JobDir is set — a per-job write-ahead journal
// that survives process crashes.
package serve

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/mutate"
	"repro/internal/wire"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Addr is the listen address for ListenAndServe. Default ":8080".
	Addr string
	// MaxDiscover bounds concurrent DiscoverFacts executions. Discovery
	// parallelizes internally across GOMAXPROCS workers, so a small number
	// of concurrent sweeps saturates the machine; excess requests are
	// refused with 429 + Retry-After. Default 4.
	MaxDiscover int
	// CacheSize is the LRU response-cache capacity in entries shared by
	// /discover and /query. Zero means the default 256; negative disables
	// caching.
	CacheSize int
	// RequestTimeout is the per-request context deadline; a /discover sweep
	// that exceeds it returns a 503 JSON error (never partial facts).
	// Default 2 minutes.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request-body size; larger bodies get 413.
	// Default 1 MiB.
	MaxBodyBytes int64
	// ShutdownTimeout bounds the graceful drain of in-flight requests once
	// the serve context is cancelled. Default 10 seconds.
	ShutdownTimeout time.Duration
	// JobWorkers bounds concurrent async discovery jobs (the /jobs API).
	// Like MaxDiscover it multiplies against DiscoverFacts's internal
	// parallelism, so keep it small. Default 2.
	JobWorkers int
	// MaxJobs bounds how many finished jobs (and their result memory) the
	// server retains; the oldest are evicted beyond it. Default 64.
	MaxJobs int
	// JobTTL evicts finished jobs older than this. Default 1 hour.
	JobTTL time.Duration
	// JobDir, when set, journals every async job to a WAL under it so a
	// crashed server's completed relations survive into the next process.
	// Empty keeps jobs in memory only.
	JobDir string
	// Logger receives access logs, panics, and lifecycle messages.
	// Default log.Default().
	Logger *log.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiling endpoints expose stacks and heap contents, so
	// they are opt-in (kgserve -pprof) rather than always-on.
	EnablePprof bool
	// MaxMutationOps caps the ops in one POST /mutate batch; larger batches
	// get 413. Default 1000; negative disables the endpoint (503).
	MaxMutationOps int
	// MutationLog, when set, appends every applied mutation batch to an
	// fsync'd CRC-framed WAL at this path, and replays an existing log at
	// startup so the base dataset plus the log reconstruct the live graph.
	// Empty keeps mutations in memory only.
	MutationLog string
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxDiscover == 0 {
		c.MaxDiscover = 4
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ShutdownTimeout == 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.MaxMutationOps == 0 {
		c.MaxMutationOps = 1000
	}
}

// discoverFunc matches core.DiscoverFacts; tests substitute instrumented
// implementations to count executions and control timing.
type discoverFunc func(ctx context.Context, model kge.Model, g *kg.Graph, strategy core.Strategy, opts core.Options) (*core.Result, error)

// Server bundles the shared dataset, the model registry (see registry.go),
// and the serving machinery (cache, single-flight group, discovery
// semaphore, metrics).
type Server struct {
	ds *kg.Dataset

	// kgMu guards the mutable graph state: the train split, the shared
	// filter union `all`, and the mutation state. Every request path that
	// reads graph structure (membership, the graph index, discovery sweeps,
	// filtered ranking) holds it for read; POST /mutate holds it for write,
	// so a batch applies atomically with respect to every reader.
	kgMu sync.RWMutex
	// all is the maintained train ∪ valid ∪ test union: the filter graph
	// for filtered ranking and "known" flags. Mutations co-maintain it, so
	// it is built once instead of merged per request.
	all *kg.Graph
	// mut owns mutation sequencing, the mutation log, and dirty tracking.
	mut *mutate.State

	// The fingerprint-keyed model registry. regMu guards the map and the
	// default pointer; per-model reference counts live on each servedModel.
	regMu     sync.RWMutex
	models    map[string]*servedModel
	defaultFP string

	cfg         Config
	cache       *lruCache
	flight      *flightGroup
	metrics     *metrics
	discoverSem chan struct{}
	discover    discoverFunc
	jobs        *jobs.Manager
	limits      jobLimits
	mutLog      *mutate.Log
	closeOnce   sync.Once
}

// New builds a Server over already-loaded artifacts, registering model as
// the default. The model must cover every entity and relation of the dataset.
// A *kge.Mapped model becomes the server's: unloading it closes the mapping.
func New(ds *kg.Dataset, model kge.Model, cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		ds:          ds,
		models:      make(map[string]*servedModel),
		cfg:         cfg,
		flight:      newFlightGroup(),
		discoverSem: make(chan struct{}, cfg.MaxDiscover),
		discover:    core.DiscoverFacts,
	}
	s.metrics = newMetrics(s.modelViews)
	s.cache = newLRUCache(cfg.CacheSize, s.metrics.cacheEvictions)
	// Build the mutable graph state before any model registers: rankers are
	// constructed against the shared filter union, and a mutation log must
	// replay, through mutate.State, before anything is derived from the
	// graph, so the graphs' indexes and the filter absorb the logged
	// batches.
	s.all = kg.Merge(ds.Train, ds.Valid, ds.Test)
	s.mut = mutate.NewState(ds.Train, s.all, kg.Merge(ds.Valid, ds.Test))
	if cfg.MutationLog != "" {
		mlog, batches, err := mutate.OpenLog(cfg.MutationLog, ds.Name)
		if err != nil {
			return nil, fmt.Errorf("serve: mutation log: %w", err)
		}
		if err := s.mut.Replay(batches); err != nil {
			mlog.Close()
			return nil, fmt.Errorf("serve: mutation log: %w", err)
		}
		if len(batches) > 0 {
			cfg.Logger.Printf("kgserve: replayed %d mutation batches from %s (seq %d)",
				len(batches), cfg.MutationLog, s.mut.Seq())
		}
		s.mut.AttachLog(mlog)
		s.mutLog = mlog
	}
	if _, err := s.addModel(model, "", 0, true); err != nil {
		if s.mutLog != nil {
			s.mutLog.Close()
		}
		return nil, err
	}
	// The forwarding closure reads s.discover at call time, so tests that
	// substitute an instrumented discover function cover async jobs too.
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:      cfg.JobWorkers,
		MaxCompleted: cfg.MaxJobs,
		TTL:          cfg.JobTTL,
		Dir:          cfg.JobDir,
		Discover: func(ctx context.Context, m kge.Model, g *kg.Graph, strategy core.Strategy, opts core.Options) (*core.Result, error) {
			// Async sweeps read the live graph: exclude mutations for the
			// duration so a job never sees a half-applied batch.
			s.kgMu.RLock()
			defer s.kgMu.RUnlock()
			res, err := s.discover(ctx, m, g, strategy, opts)
			if err == nil {
				s.metrics.scoreSweeps.Add(uint64(res.Stats.ScoreSweeps))
				s.metrics.batchedSweeps.Add(uint64(res.Stats.BatchedSweeps))
				s.metrics.batchRows.Add(uint64(res.Stats.BatchRows))
			}
			return res, err
		},
	}, &s.metrics.reg)
	return s, nil
}

// Load reads a dataset directory and maps a flat model checkpoint
// (kge.OpenMapped) from disk, and builds a Server with it as the default
// model.
func Load(dataDir, modelPath string, cfg Config) (*Server, error) {
	cfg.setDefaults()
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, err := kge.OpenMapped(modelPath)
	if err != nil {
		return nil, err
	}
	s, err := New(ds, m, cfg)
	if err != nil {
		m.Close()
		return nil, err
	}
	// Patch the default entry's provenance: New cannot know where the
	// weights came from.
	sm := s.defaultModel()
	sm.path, sm.loadTime = modelPath, time.Since(start)
	cfg.Logger.Printf("kgserve: loaded checkpoint %s (%s) in %s",
		modelPath, sm.fingerprint[:12], sm.loadTime.Round(time.Microsecond))
	return s, nil
}

// Fingerprint returns the default model's canonical weight digest, or ""
// when no default is set.
func (s *Server) Fingerprint() string {
	if sm := s.defaultModel(); sm != nil {
		return sm.fingerprint
	}
	return ""
}

// Model returns the default served model, or nil when no default is set.
func (s *Server) Model() kge.Model {
	if sm := s.defaultModel(); sm != nil {
		return sm.model
	}
	return nil
}

// Dataset returns the served dataset.
func (s *Server) Dataset() *kg.Dataset { return s.ds }

// Handler returns the full route table with per-route middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("/healthz", wire.Healthz))
	mux.Handle("GET /stats", s.wrap("/stats", s.handleStats))
	mux.Handle("GET /metrics", s.wrap("/metrics", s.metrics.reg.ServeHTTP))
	mux.Handle("POST /score", s.wrap("/score", s.handleScore))
	mux.Handle("POST /rank", s.wrap("/rank", s.handleRank))
	mux.Handle("POST /query", s.wrap("/query", s.handleQuery))
	mux.Handle("POST /discover", s.wrap("/discover", s.handleDiscover))
	mux.Handle("POST /mutate", s.wrap("/mutate", s.handleMutate))
	mux.Handle("POST /jobs", s.wrap("/jobs", s.handleJobSubmit))
	mux.Handle("GET /jobs", s.wrap("/jobs", s.handleJobList))
	mux.Handle("GET /jobs/{id}", s.wrap("/jobs/{id}", s.handleJobStatus))
	mux.Handle("GET /jobs/{id}/result", s.wrap("/jobs/{id}/result", s.handleJobResult))
	mux.Handle("DELETE /jobs/{id}", s.wrap("/jobs/{id}", s.handleJobCancel))
	mux.Handle("GET /models", s.wrap("/models", s.handleModelList))
	mux.Handle("POST /models", s.wrap("/models", s.handleModelLoad))
	mux.Handle("DELETE /models/{fp}", s.wrap("/models/{fp}", s.handleModelUnload))
	if s.cfg.EnablePprof {
		// Mounted bare (no wrap): the profile handlers stream for seconds at
		// a time and must not show up in request-latency histograms or be
		// subject to body limits.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Close stops the async job machinery — pending and running jobs are
// cancelled and the worker pool drained — then retires every registered
// model, unmapping mmap-backed checkpoints. Serve calls it during shutdown;
// callers that only use Handler (tests, embedding) should call it
// themselves. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Jobs first: draining the pool releases the model references jobs
		// hold, so the retire below can unmap immediately.
		s.jobs.Close()
		s.regMu.Lock()
		retired := make([]*servedModel, 0, len(s.models))
		for fp, sm := range s.models {
			retired = append(retired, sm)
			delete(s.models, fp)
		}
		s.defaultFP = ""
		s.regMu.Unlock()
		for _, sm := range retired {
			sm.retire()
		}
		if s.mutLog != nil {
			s.mutLog.Close()
		}
	})
}

// ListenAndServe listens on cfg.Addr and serves until ctx is cancelled,
// then drains gracefully. The bound address (useful with ":0") is logged as
// "listening on <addr>".
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then shuts down gracefully:
// in-flight requests are drained (bounded by cfg.ShutdownTimeout) while new
// connections are refused. Returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		// WriteTimeout must outlast the request deadline or slow discovery
		// responses would be cut off mid-body.
		WriteTimeout: s.cfg.RequestTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
		ErrorLog:     s.cfg.Logger,
	}
	s.cfg.Logger.Printf("kgserve: listening on %s", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-errc // hs.Serve has returned http.ErrServerClosed
		// Cancel async jobs only after the HTTP drain: in-flight /jobs
		// requests observe consistent manager state to the end.
		s.Close()
		if err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		s.cfg.Logger.Printf("kgserve: drained, shutdown complete")
		return nil
	}
}
