// Command kgfleet runs the distributed discovery fleet: a coordinator that
// shards a sweep's relations into lease-able units, and workers that pull
// units over HTTP and execute them with the local jobs engine. The spliced
// output is byte-identical to a single-process kgdiscover run with the same
// inputs — including under worker crashes, dropped heartbeats, duplicate
// deliveries, and coordinator crash-resume (see internal/fleet).
//
// The coordinator serves until SIGINT or SIGTERM; sweeps reach it as
// POST /sweep, which kgdiscover -fleet sends and renders exactly like a local
// run. Workers run until signalled, or until the coordinator has been
// unreachable for -max-idle:
//
//	kgfleet coord -addr 127.0.0.1:7070 &
//	kgfleet worker -coord http://127.0.0.1:7070 -name w1 &
//	kgfleet worker -coord http://127.0.0.1:7070 -name w2 &
//	kgdiscover -data data/fb10 -model transe.kgf -strategy cluster_triangles \
//	           -fleet 127.0.0.1:7070 -out facts.tsv
//
// With kgdiscover's -checkpoint the coordinator journals every accepted
// relation record to a WAL (fsync'd before the worker's delivery is
// acknowledged); after a coordinator crash, resubmitting with -resume to a
// restarted coordinator continues from the last good record. The fault
// scenarios are tested in-process by internal/fleet's fault matrix;
// scripts/ci.sh SIGKILLs a real worker mid-lease.
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

	"repro/internal/fleet"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kgfleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: kgfleet <coord|worker> [flags] (-h for flags)")
	}
	switch args[0] {
	case "coord":
		return runCoord(ctx, args[1:], stderr)
	case "worker":
		return runWorker(ctx, args[1:], stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want coord or worker)", args[0])
	}
}

// runCoord serves the coordinator API until ctx ends or the process is
// signalled.
func runCoord(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("kgfleet coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "listen address")
		leaseTTL = fs.Duration("lease", 10*time.Second, "lease TTL: a unit unheard-from this long is reassigned")
		poll     = fs.Duration("poll", 500*time.Millisecond, "wait suggested to idle workers between lease polls")
		maxAtt   = fs.Int("max-attempts", 5, "lease attempts per unit before the sweep is failed")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
		Logf:         logger.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("kgfleet: coordinator listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	go coord.Run(ctx)

	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	<-ctx.Done()
	logger.Printf("kgfleet: shutting down")
	// net/http waits 5 s before it treats a connection that was dialled but
	// never carried a request as idle; a worker's transport can leave one
	// behind, so the deadline has to outlast that grace.
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runWorker pulls and executes units until the process is signalled, or
// until the coordinator has been unreachable for -max-idle.
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
