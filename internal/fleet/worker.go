package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/wire"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:7070".
	Coordinator string
	// Name identifies this worker in leases, logs, and /status.
	Name string
	// Client overrides the HTTP client (tests); nil uses a 30s-timeout client.
	Client *http.Client
	// MaxIdle bounds how long the worker keeps retrying an unreachable
	// coordinator before giving up — long enough to ride out a coordinator
	// crash-and-resume, short enough that an orphaned worker eventually
	// exits. Zero means 2 minutes.
	MaxIdle time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Name == "" {
		c.Name = "worker"
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxIdle <= 0 {
		c.MaxIdle = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker pulls units from a coordinator and executes them with the local
// jobs.Run. It is stateless across units apart from an artifact cache: the
// dataset and the mmap'd checkpoint are opened once and reused while
// consecutive units name the same paths and fingerprint.
type Worker struct {
	cfg     WorkerConfig
	leaseMS int64
	pollMS  int64

	// Artifact cache.
	dataDir     string
	ds          *kg.Dataset
	modelPath   string
	fingerprint string
	model       *kge.Mapped
}

// NewWorker builds a Worker; Run drives it until ctx ends.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg.withDefaults(), pollMS: 500}
}

// Run registers with the coordinator and processes units until ctx is
// cancelled (returns ctx's error) or the coordinator stays unreachable past
// MaxIdle (returns an error). Transient coordinator outages — including a
// crash-and-resume — are ridden out with exponential backoff.
func (w *Worker) Run(ctx context.Context) error {
	defer w.closeArtifacts()
	if err := w.register(ctx); err != nil {
		return err
	}
	lastContact := time.Now()
	backoff := 100 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var resp LeaseResponse
		err := w.post(ctx, "/lease", LeaseRequest{Worker: w.cfg.Name}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Since(lastContact) > w.cfg.MaxIdle {
				return fmt.Errorf("fleet: coordinator unreachable for %s: %w", w.cfg.MaxIdle, err)
			}
			w.cfg.Logf("fleet: lease request failed (retrying in %s): %v", backoff, err)
			if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		lastContact = time.Now()
		backoff = 100 * time.Millisecond
		switch resp.Status {
		case StatusUnit:
			w.execute(ctx, resp.Unit)
		default: // StatusWait or anything unrecognized
			wait := time.Duration(resp.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = 500 * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	deadline := time.Now().Add(w.cfg.MaxIdle)
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		err := w.post(ctx, "/register", RegisterRequest{Worker: w.cfg.Name}, &resp)
		if err == nil {
			w.leaseMS = resp.LeaseMS
			if resp.PollMS > 0 {
				w.pollMS = resp.PollMS
			}
			w.cfg.Logf("fleet: registered with %s (lease %dms)", w.cfg.Coordinator, w.leaseMS)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: could not register with %s: %w", w.cfg.Coordinator, err)
		}
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// execute runs one unit: verify artifacts, sweep with heartbeats, deliver.
func (w *Worker) execute(ctx context.Context, u *Unit) {
	if u == nil {
		return
	}
	strategy, err := core.StrategyByName(u.Strategy)
	if err != nil {
		w.fail(ctx, u, err, true)
		return
	}
	if err := w.ensureArtifacts(u); err != nil {
		w.fail(ctx, u, err, true)
		return
	}

	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := w.startHeartbeats(unitCtx, u, cancel)
	defer func() { cancel(); <-hbDone }()

	opts := u.Options.CoreOptions()
	opts.Relations = u.Relations
	var records []jobs.RelationRecord
	_, _, err = jobs.Run(unitCtx, jobs.Spec{
		Model:      w.model,
		Graph:      w.ds.Train,
		Strategy:   strategy,
		Options:    opts,
		OnRelation: func(rec jobs.RelationRecord) { records = append(records, rec) },
	})
	if err != nil {
		w.fail(ctx, u, err, false)
		return
	}

	if err := w.complete(ctx, u, records); err != nil {
		// Not fatal: the lease will expire and the unit will be reassigned;
		// the records are a pure function of the unit, so nothing is lost.
		w.cfg.Logf("fleet: could not deliver unit %d: %v", u.UnitID, err)
		return
	}
	w.cfg.Logf("fleet: unit %d delivered: %d relations, %d facts",
		u.UnitID, len(records), countFacts(records))
}

// ensureArtifacts opens (or reuses) the dataset and checkpoint a unit names
// and verifies both pins: the checkpoint's canonical fingerprint and the
// sweep's options hash recomputed from the local graph. Either mismatch
// means this worker's copy of the artifacts diverged from the
// coordinator's; executing anyway would splice facts from different inputs
// into one output, so the unit is refused permanently instead.
func (w *Worker) ensureArtifacts(u *Unit) error {
	if w.ds == nil || w.dataDir != u.Data {
		ds, err := kg.LoadDataset(u.Data, u.Data)
		if err != nil {
			return fmt.Errorf("fleet: loading dataset: %w", err)
		}
		w.ds, w.dataDir = ds, u.Data
	}
	if w.model == nil || w.modelPath != u.Model || w.fingerprint != u.Fingerprint {
		w.closeModel()
		m, err := kge.OpenMapped(u.Model)
		if err != nil {
			return fmt.Errorf("fleet: loading model: %w", err)
		}
		fp := kge.Fingerprint(m)
		if fp != u.Fingerprint {
			m.Close()
			return fmt.Errorf("fleet: checkpoint fingerprint mismatch: coordinator pinned %.12s, %s has %.12s",
				u.Fingerprint, u.Model, fp)
		}
		w.model, w.modelPath, w.fingerprint = m, u.Model, fp
		w.cfg.Logf("fleet: opened %s (fingerprint %.12s)", u.Model, fp)
	}
	gotHash := jobs.OptionsHash(u.Strategy, w.ds.Train, u.Options.CoreOptions(), u.SweepRelations)
	if gotHash != u.OptionsHash {
		return fmt.Errorf("fleet: options hash mismatch: coordinator pinned %.12s, local dataset/options give %.12s (dataset drift?)",
			u.OptionsHash, gotHash)
	}
	return nil
}

// startHeartbeats extends the unit's lease every leaseTTL/3 until ctx is
// cancelled. StatusAbandon cancels the unit: the coordinator reassigned it,
// so finishing the sweep would only produce duplicate records. The returned
// channel closes when the goroutine exits.
func (w *Worker) startHeartbeats(ctx context.Context, u *Unit, cancel context.CancelFunc) <-chan struct{} {
	interval := time.Duration(u.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			var resp HeartbeatResponse
			err := w.post(ctx, "/heartbeat", HeartbeatRequest{
				Worker: w.cfg.Name, SweepID: u.SweepID, UnitID: u.UnitID,
			}, &resp)
			if err != nil {
				continue // lease expiry is the coordinator's problem to detect
			}
			if resp.Status == StatusAbandon {
				w.cfg.Logf("fleet: unit %d abandoned by coordinator; cancelling local sweep", u.UnitID)
				cancel()
				return
			}
		}
	}()
	return done
}

// complete delivers a unit's records, retrying transient transport errors.
func (w *Worker) complete(ctx context.Context, u *Unit, records []jobs.RelationRecord) error {
	req := CompleteRequest{Worker: w.cfg.Name, SweepID: u.SweepID, UnitID: u.UnitID, Records: records}
	var lastErr error
	for attempt, backoff := 0, 200*time.Millisecond; attempt < 5; attempt, backoff = attempt+1, backoff*2 {
		var resp CompleteResponse
		if lastErr = w.post(ctx, "/complete", req, &resp); lastErr == nil {
			if resp.Status == StatusUnknown {
				w.cfg.Logf("fleet: coordinator does not know unit %d (restarted?); dropping delivery", u.UnitID)
			} else if resp.Duplicates > 0 {
				w.cfg.Logf("fleet: unit %d delivery: %d accepted, %d duplicates deduped", u.UnitID, resp.Accepted, resp.Duplicates)
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !sleepCtx(ctx, backoff) {
			return ctx.Err()
		}
	}
	return lastErr
}

// fail reports a unit failure, best-effort.
func (w *Worker) fail(ctx context.Context, u *Unit, cause error, permanent bool) {
	w.cfg.Logf("fleet: unit %d failed (permanent=%t): %v", u.UnitID, permanent, cause)
	var resp FailResponse
	_ = w.post(ctx, "/fail", FailRequest{
		Worker: w.cfg.Name, SweepID: u.SweepID, UnitID: u.UnitID,
		Error: cause.Error(), Permanent: permanent,
	}, &resp)
	if permanent {
		// Back off so a misconfigured worker cannot hot-loop leasing and
		// permanently failing the same unit through the attempt budget.
		sleepCtx(ctx, time.Duration(w.pollMS)*time.Millisecond)
	}
}

// post sends one JSON request to the coordinator and decodes the reply.
// Non-2xx answers surface the coordinator's JSON error message.
func (w *Worker) post(ctx context.Context, path string, body, into any) error {
	if err := wire.Post(ctx, w.cfg.Client, w.cfg.Coordinator+path, body, into, completeBodyLimit); err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	return nil
}

func (w *Worker) closeModel() {
	if w.model != nil {
		w.model.Close()
	}
	w.model, w.modelPath, w.fingerprint = nil, "", ""
}

func (w *Worker) closeArtifacts() {
	w.closeModel()
	w.ds, w.dataDir = nil, ""
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func countFacts(records []jobs.RelationRecord) int {
	n := 0
	for _, rec := range records {
		n += len(rec.Facts)
	}
	return n
}
