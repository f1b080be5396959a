// Command kgserve exposes a trained KGE model and its knowledge graph as a
// production JSON-over-HTTP service: triple scoring (with calibrated
// probabilities), rank queries, link-prediction style object queries,
// on-demand fact discovery, and Prometheus-text metrics. The serving
// machinery — timeouts, graceful shutdown, panic recovery, body limits,
// concurrency bounding, and the fingerprint-keyed response cache — lives in
// internal/serve; this command is flag parsing and signal wiring.
//
//	kgserve -data data/fb10 -model transe.kge -addr :8080
//
//	GET  /healthz
//	GET  /stats
//	GET  /metrics
//	POST /score     {"subject":"e1","relation":"r0","object":"e2"}
//	POST /rank      {"subject":"e1","relation":"r0","object":"e2"}
//	POST /query     {"subject":"e1","relation":"r0","k":10}
//	POST /discover  {"strategy":"cluster_triangles","top_n":50,
//	                 "max_candidates":100,"relations":["r0"],"limit":25}
//	POST /mutate    {"seq":1,"source":"ingest","ops":[
//	                 {"op":"add","s":"e1","r":"r0","o":"e2"}]}
//
// /mutate applies batched live graph mutations: indexes, graph statistics,
// and the ranking filter update incrementally, and cached responses that
// depended on a mutated relation are invalidated. With -mutation-log the
// batches land in a durable WAL before applying and replay on restart.
//
// Sweeps too long to hold an HTTP request open run asynchronously:
//
//	POST   /jobs             same body as /discover → 202 + job id
//	GET    /jobs             status of every retained job
//	GET    /jobs/{id}        one job's status and per-relation progress
//	GET    /jobs/{id}/result the discovered facts once state is "done"
//	DELETE /jobs/{id}        cancel a queued or running job
//
// With -job-dir each async job journals completed relations to a WAL there,
// so resubmitting after a crash resumes instead of restarting.
//
// The server hosts any number of models over one dataset (flat checkpoints
// are memory-mapped, so N models cost N× page-cache residency, not N× heap).
// Load extras at startup with -models, or manage them live:
//
//	GET    /models      every loaded model, by weight fingerprint
//	POST   /models      {"path":"b.kgf","default":false} load a checkpoint
//	DELETE /models/{fp} unload (in-flight requests drain first)
//
// Request bodies accept an optional "model" field — a fingerprint or unique
// prefix — to route /score, /rank, /query, /discover, and /jobs per model.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kgserve:", err)
		os.Exit(1)
	}
}

// run parses flags, loads the artifacts, and serves until ctx is cancelled
// or a SIGINT/SIGTERM arrives, then drains gracefully.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("kgserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dataDir := fs.String("data", "", "dataset directory (required)")
	modelPath := fs.String("model", "", "default flat model checkpoint (required; kgconvert migrates a gob one)")
	extraModels := fs.String("models", "", "comma-separated additional checkpoints to serve alongside the default (route with the request's \"model\" fingerprint selector)")
	addr := fs.String("addr", ":8080", "listen address")
	maxDiscover := fs.Int("max-discover", 4, "max concurrent /discover executions (excess requests get 429)")
	cacheSize := fs.Int("cache-size", 256, "response cache capacity in entries (negative disables caching)")
	requestTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline (slow /discover returns 503)")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes (larger bodies get 413)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful drain deadline on SIGINT/SIGTERM")
	jobWorkers := fs.Int("job-workers", 2, "worker pool size for async /jobs discovery")
	maxJobs := fs.Int("max-jobs", 64, "finished async jobs retained before the oldest are evicted")
	jobTTL := fs.Duration("job-ttl", time.Hour, "finished async jobs older than this are evicted")
	jobDir := fs.String("job-dir", "", "journal async jobs to WALs under this directory (empty = in-memory only)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes stacks and heap contents; keep off on untrusted networks)")
	mutationLog := fs.String("mutation-log", "", "durable WAL for POST /mutate batches; existing batches replay on startup (empty = mutations are in-memory only)")
	maxMutationOps := fs.Int("max-mutation-ops", 1000, "max ops per /mutate batch (larger batches get 413; negative disables the endpoint)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" || *modelPath == "" {
		return fmt.Errorf("-data and -model are required")
	}
	if *jobDir != "" {
		if err := os.MkdirAll(*jobDir, 0o755); err != nil {
			return err
		}
	}

	logger := log.New(stderr, "", log.LstdFlags)
	srv, err := serve.Load(*dataDir, *modelPath, serve.Config{
		Addr:            *addr,
		MaxDiscover:     *maxDiscover,
		CacheSize:       *cacheSize,
		RequestTimeout:  *requestTimeout,
		MaxBodyBytes:    *maxBody,
		ShutdownTimeout: *shutdownTimeout,
		JobWorkers:      *jobWorkers,
		MaxJobs:         *maxJobs,
		JobTTL:          *jobTTL,
		JobDir:          *jobDir,
		Logger:          logger,
		EnablePprof:     *enablePprof,
		MutationLog:     *mutationLog,
		MaxMutationOps:  *maxMutationOps,
	})
	if err != nil {
		return err
	}
	if *extraModels != "" {
		for _, path := range strings.Split(*extraModels, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			if _, err := srv.LoadModelFile(path, false); err != nil {
				return fmt.Errorf("-models %s: %w", path, err)
			}
		}
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("kgserve: model %s (fingerprint %.12s…) over %s",
		srv.Model().Name(), srv.Fingerprint(), srv.Dataset().Name)
	return srv.ListenAndServe(ctx)
}
