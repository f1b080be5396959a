// Command kgfleet runs the distributed discovery fleet: a coordinator that
// shards a sweep's relations into lease-able units, and workers that pull
// units over HTTP and execute them with the local jobs engine. The spliced
// output is byte-identical to a single-process kgdiscover run with the same
// inputs — including under worker crashes, dropped heartbeats, duplicate
// deliveries, and coordinator crash-resume (see internal/fleet).
//
// One-shot sweep (coordinator exits when the sweep completes and tells the
// workers to shut down):
//
//	kgfleet coord -addr 127.0.0.1:7070 -data data/fb10 -model transe.kgf \
//	              -strategy cluster_triangles -out facts.tsv &
//	kgfleet worker -coord http://127.0.0.1:7070 -name w1 &
//	kgfleet worker -coord http://127.0.0.1:7070 -name w2 &
//
// Long-lived coordinator (submit sweeps with kgdiscover -fleet=ADDR):
//
//	kgfleet coord -addr :7070 -serve
//
// With -checkpoint the coordinator journals every accepted relation record
// to a WAL (fsync'd before the worker's delivery is acknowledged); after a
// coordinator crash, rerunning with -resume continues from the last good
// record. The fault scenarios are tested in-process by internal/fleet's fault
// matrix; scripts/ci.sh SIGKILLs a real worker mid-lease.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/kg"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kgfleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: kgfleet <coord|worker> [flags] (-h for flags)")
	}
	switch args[0] {
	case "coord":
		return runCoord(ctx, args[1:], stdout, stderr)
	case "worker":
		return runWorker(ctx, args[1:], stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want coord or worker)", args[0])
	}
}

// runCoord serves the coordinator API and, unless -serve is given, submits
// one sweep built from the flags and exits once it completes.
func runCoord(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kgfleet coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "listen address")
		serveMode = fs.Bool("serve", false, "stay up accepting POST /sweep submissions instead of running one sweep and exiting")
		dataDir   = fs.String("data", "", "dataset directory (one-shot mode)")
		modelPath = fs.String("model", "", "model checkpoint (one-shot mode)")
		stratName = fs.String("strategy", "entity_frequency",
			fmt.Sprintf("sampling strategy: %v", core.AllStrategyNames()))
		topN       = fs.Int("top_n", 500, "max rank for a candidate to count as a fact")
		maxCand    = fs.Int("max_candidates", 500, "max candidates generated per relation")
		seed       = fs.Int64("seed", 1, "sampling seed")
		filtered   = fs.Bool("rank_filtered", false, "use the filtered ranking protocol")
		cacheW     = fs.Bool("cache_weights", false, "memoize strategy statistics across relations")
		limit      = fs.Int("limit", 50, "print at most this many facts (0 = all)")
		outTSV     = fs.String("out", "", "write all facts as TSV to this path")
		checkpoint = fs.String("checkpoint", "", "journal each accepted relation to this WAL path (crash-resumable)")
		resume     = fs.Bool("resume", false, "continue from an existing -checkpoint journal")
		unitSize   = fs.Int("unit", 1, "relations per work unit (lease and reassignment granularity)")
		leaseTTL   = fs.Duration("lease", 10*time.Second, "lease TTL: a unit unheard-from this long is reassigned")
		poll       = fs.Duration("poll", 500*time.Millisecond, "wait suggested to idle workers between lease polls")
		maxAtt     = fs.Int("max-attempts", 5, "lease attempts per unit before the sweep is failed")
		drain      = fs.Duration("drain", 5*time.Second, "after a one-shot sweep, wait at most this long for workers to poll and receive their shutdown order")
		linger     = fs.Duration("linger", 0, "keep serving this long after the sweep completes (lets tests scrape /metrics)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*serveMode && (*dataDir == "" || *modelPath == "") {
		return errors.New("-data and -model are required (or -serve for a long-lived coordinator)")
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume requires -checkpoint")
	}
	// Leases travel to workers in whole milliseconds; a shorter TTL would
	// reach them as 0 and expire before their first heartbeat.
	if *leaseTTL < time.Millisecond {
		return fmt.Errorf("-lease %s is below the 1ms minimum", *leaseTTL)
	}

	logger := log.New(stderr, "", log.LstdFlags)
	coord := fleet.New(fleet.Config{
		LeaseTTL:     *leaseTTL,
		PollInterval: *poll,
		MaxAttempts:  *maxAtt,
		OneShot:      !*serveMode,
		Logf:         logger.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("kgfleet: coordinator listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	go coord.Run(runCtx)

	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() error {
		// net/http waits 5 s before it treats a connection that was dialled
		// but never carried a request as idle; a worker's transport can
		// leave one behind, so the deadline has to outlast that grace.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return err
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}

	if *serveMode {
		<-ctx.Done()
		logger.Printf("kgfleet: shutting down")
		return shutdown()
	}

	resp, err := coord.Submit(ctx, fleet.SweepRequest{
		Data:     *dataDir,
		Model:    *modelPath,
		Strategy: *stratName,
		Options: fleet.SweepOptions{
			TopN:          *topN,
			MaxCandidates: *maxCand,
			Seed:          *seed,
			RankFiltered:  *filtered,
			CacheWeights:  *cacheW,
		},
		Checkpoint:    *checkpoint,
		Resume:        *resume,
		UnitRelations: *unitSize,
	})
	if err != nil {
		shutdown()
		return err
	}
	if werr := printSweep(stdout, resp, *dataDir, *stratName, *checkpoint, *limit, *outTSV); werr != nil {
		shutdown()
		return werr
	}
	// Let surviving workers poll once more and receive their shutdown order
	// before the listener goes away; bounded, because a worker the harness
	// SIGKILLed mid-fleet will never poll again.
	for deadline := time.Now().Add(*drain); time.Now().Before(deadline) && !coord.WorkersDrained() && ctx.Err() == nil; {
		time.Sleep(50 * time.Millisecond)
	}
	if *linger > 0 {
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
		}
	}
	return shutdown()
}

// printSweep renders a completed sweep in kgdiscover's output shape: the
// resumed-checkpoint line, the summary lines, the top facts, and the TSV.
func printSweep(stdout io.Writer, resp *fleet.SweepResponse, dataDir, strategy, checkpoint string, limit int, outTSV string) error {
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		return err
	}
	if checkpoint != "" {
		fmt.Fprintf(stdout, "checkpoint: resumed %d of %d relations (journal %s)\n",
			resp.Fleet.Resumed, resp.Fleet.TotalRelations, checkpoint)
	}
	fmt.Fprintf(stdout, "sweep complete: strategy=%s fingerprint=%.12s facts=%d generated=%d\n",
		strategy, resp.Fingerprint, len(resp.Facts), resp.Generated)
	fmt.Fprintf(stdout, "fleet: units=%d workers=%d reassigned=%d duplicates=%d retried=%d resumed=%d\n",
		resp.Fleet.Units, resp.Fleet.Workers, resp.Fleet.Reassigned,
		resp.Fleet.DuplicateRecords, resp.Fleet.RetriedUnits, resp.Fleet.Resumed)
	fmt.Fprintf(stdout, "runtime=%s (weights=%s generate=%s rank=%s sweeps=%d)\n",
		time.Duration(resp.RuntimeMS)*time.Millisecond, time.Duration(resp.WeightMS)*time.Millisecond,
		time.Duration(resp.GenerateMS)*time.Millisecond, time.Duration(resp.RankMS)*time.Millisecond,
		resp.ScoreSweeps)

	return jobs.ReportFacts(stdout, ds.Train, jobs.FactsOf(resp.Facts), limit, outTSV)
}

// runWorker pulls and executes units until the coordinator shuts the fleet
// down or the process is signalled.
func runWorker(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("kgfleet worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordURL = fs.String("coord", "", "coordinator base URL, e.g. http://127.0.0.1:7070 (required)")
		name     = fs.String("name", "", "worker name in leases and /status (default worker-<pid>)")
		maxIdle  = fs.Duration("max-idle", 2*time.Minute, "exit after the coordinator has been unreachable this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return errors.New("-coord is required")
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}

	logger := log.New(stderr, "", log.LstdFlags)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: *coordURL,
		Name:        *name,
		MaxIdle:     *maxIdle,
		Logf:        logger.Printf,
	})
	err := w.Run(ctx)
	if errors.Is(err, context.Canceled) {
		return nil // signalled: clean exit
	}
	return err
}
