// Package fleet distributes the paper's Algorithm 1 sweep across a fleet of
// worker processes. A coordinator shards a sweep's relations into lease-able
// units; stateless workers pull units over HTTP, run the existing jobs.Run
// locally against the shared checkpoint (verified by kge.Fingerprint and the
// jobs options hash before a single candidate is scored), and ship back the
// same per-relation records the job WAL journals. Because every relation's
// sweep is a pure function of its inputs (per-relation splitmix64 streams),
// the coordinator can splice records arriving in any order, from any worker,
// after any number of crashes and reassignments, into output byte-identical
// to a single-process run — duplicates are detected by relation and deduped,
// never double-counted.
//
// Robustness is first-class: units carry lease deadlines extended by worker
// heartbeats; an expired lease returns its unit to the pending queue and a
// reassigned worker re-derives the identical stream. The coordinator
// journals every accepted record to its own jobs WAL (fsync'd before the
// completion is acknowledged), so a coordinator SIGKILL resumes from the
// longest valid prefix with the same fingerprint + options-hash pinning a
// single-node resume enjoys.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/wire"
)

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTTL is how long a leased unit may go without a heartbeat before
	// it is reassigned. Zero means 10s.
	LeaseTTL time.Duration
	// PollInterval is the wait the coordinator suggests to idle workers.
	// Zero means 500ms.
	PollInterval time.Duration
	// MaxAttempts bounds how many times one unit may be leased before the
	// sweep is failed (a unit that kills every worker it touches must not
	// retry forever). Zero means 5.
	MaxAttempts int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	// now overrides the clock for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Unit lifecycle states.
const (
	unitPending = "pending"
	unitLeased  = "leased"
	unitDone    = "done"
)

// Sweep lifecycle states.
const (
	sweepRunning = "running"
	sweepDone    = "done"
	sweepFailed  = "failed"
)

// unit is one lease-able shard of a sweep.
type unit struct {
	id        int
	relations []kg.RelationID
	state     string
	worker    string
	deadline  time.Time
	attempts  int
}

// sweep is one distributed discovery run.
type sweep struct {
	id           string
	req          SweepRequest
	fingerprint  string
	optionsHash  string
	relations    []kg.RelationID // full sweep list, graph order
	relSet       map[kg.RelationID]bool
	units        []*unit
	done         map[kg.RelationID]bool
	doneBy       map[string]bool // workers whose records were accepted
	records      []jobs.RelationRecord
	journal      *jobs.Journal
	resumed      int
	state        string
	err          error
	doneCh       chan struct{} // closed on done or failed
	start        time.Time
	result       *SweepResponse
	reassigned   int
	duplicates   int
	retriedUnits int
}

// workerState tracks one registered worker.
type workerState struct {
	name      string
	lastSeen  time.Time
	unitsDone int
}

// Coordinator shards sweeps across workers and splices their results. All
// mutable state but the metric counters sits behind one mutex: the request
// rates involved (unit leases and completions, not per-candidate work) make
// contention a non-issue, and the lease/reassignment state machine stays
// obviously race-free.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	sweeps  map[string]*sweep
	order   []string // sweep IDs in submission order, for deterministic lease scans
	workers map[string]*workerState

	// metrics is what /metrics serves; the counters are its handles.
	metrics                                             wire.Registry
	leases, reassigned, retried, duplicates, mismatched *wire.Counter
	records, unknownCompletes, sweepsSubmitted          *wire.Counter
}

// New builds a Coordinator; Handler exposes its HTTP API.
func New(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:     cfg.withDefaults(),
		sweeps:  make(map[string]*sweep),
		workers: make(map[string]*workerState),
	}
	// The gauges read the coordinator's state at each scrape.
	r := &c.metrics
	r.GaugeFunc("kgfleet_workers", "Workers heard from within three lease TTLs.", nil, func(emit func(any, ...string)) {
		c.mu.Lock()
		defer c.mu.Unlock()
		now, live := c.cfg.now(), 0
		for _, ws := range c.workers {
			if now.Sub(ws.lastSeen) <= 3*c.cfg.LeaseTTL {
				live++
			}
		}
		emit(live)
	})
	r.GaugeFunc("kgfleet_units", "Work units across all sweeps, by lease state.", []string{"state"}, func(emit func(any, ...string)) {
		c.mu.Lock()
		defer c.mu.Unlock()
		units := map[string]int{unitPending: 0, unitLeased: 0, unitDone: 0}
		for _, sw := range c.sweeps {
			for _, u := range sw.units {
				units[u.state]++
			}
		}
		for st, n := range units {
			emit(n, st)
		}
	})
	r.GaugeFunc("kgfleet_sweeps", "Sweeps hosted by this coordinator, by state.", []string{"state"}, func(emit func(any, ...string)) {
		c.mu.Lock()
		defer c.mu.Unlock()
		sweeps := map[string]int{sweepRunning: 0, sweepDone: 0, sweepFailed: 0}
		for _, sw := range c.sweeps {
			sweeps[sw.state]++
		}
		for st, n := range sweeps {
			emit(n, st)
		}
	})
	c.leases = r.Counter("kgfleet_leases_total", "Unit leases granted to workers.")
	c.reassigned = r.Counter("kgfleet_reassignments_total", "Units returned to the pending queue after a lease expired without heartbeats.")
	c.retried = r.Counter("kgfleet_unit_retries_total", "Units returned to the pending queue by an explicit worker failure report.")
	c.duplicates = r.Counter("kgfleet_duplicate_records_total", "Relation records dropped because the relation was already complete (reassignment or duplicate delivery).")
	c.mismatched = r.Counter("kgfleet_mismatched_records_total", "Relation records dropped because the relation does not belong to the sweep.")
	c.records = r.Counter("kgfleet_records_total", "Relation records accepted, journaled, and spliced.")
	c.unknownCompletes = r.Counter("kgfleet_unknown_completes_total", "Unit completions for sweeps this coordinator does not know (e.g. delivered across a restart).")
	c.sweepsSubmitted = r.Counter("kgfleet_sweeps_submitted_total", "Sweeps ever submitted to this coordinator.")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", wire.Handle(controlBodyLimit, c.handleRegister))
	mux.HandleFunc("POST /lease", wire.Handle(controlBodyLimit, c.handleLease))
	mux.HandleFunc("POST /heartbeat", wire.Handle(controlBodyLimit, c.handleHeartbeat))
	mux.HandleFunc("POST /complete", c.handleComplete)
	mux.HandleFunc("POST /fail", wire.Handle(controlBodyLimit, c.handleFail))
	mux.HandleFunc("POST /sweep", c.handleSweep)
	mux.HandleFunc("GET /status", c.handleStatus)
	mux.Handle("GET /metrics", &c.metrics)
	mux.HandleFunc("GET /healthz", wire.Healthz)
	c.mux = mux
	return c
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Run expires stale leases on a ticker until ctx is cancelled. Leases are
// also expired lazily on every /lease request, so Run is a liveness aid
// (reassignment happens even while no worker is polling for work), not a
// correctness requirement.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(c.cfg.now())
			c.mu.Unlock()
		}
	}
}

// SweepID derives the deterministic sweep identity from the two values that
// pin a run: the model fingerprint and the canonical options hash. The same
// sweep re-submitted (or resumed after a coordinator crash) maps to the same
// ID, which is what lets zombie workers from a previous incarnation deliver
// usable records.
func SweepID(fingerprint, optionsHash string) string {
	sum := sha256.Sum256([]byte(fingerprint + ":" + optionsHash))
	return hex.EncodeToString(sum[:6])
}

// Submit registers a sweep and blocks until the fleet completes it (or ctx
// is cancelled — the sweep itself keeps running; a journaled sweep is
// re-joinable by submitting the same request again). Identical concurrent
// submissions join the same sweep, single-flight style.
func (c *Coordinator) Submit(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	sw, err := c.addSweep(req)
	if err != nil {
		return nil, err
	}
	return c.wait(ctx, sw)
}

// wait blocks until sw is done or failed and returns its outcome, or
// ctx's error if ctx ends first.
func (c *Coordinator) wait(ctx context.Context, sw *sweep) (*SweepResponse, error) {
	select {
	case <-sw.doneCh:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return sw.result, sw.err
}

// addSweep validates the request, loads just enough of the artifacts to pin
// the run identity (dictionaries and graph shape for the options hash, the
// checkpoint for its fingerprint), recovers the WAL when resuming, and
// schedules the remaining relations as units.
func (c *Coordinator) addSweep(req SweepRequest) (*sweep, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	strategy, err := core.StrategyByName(req.Strategy)
	if err != nil {
		return nil, err
	}
	ds, err := kg.LoadDataset(req.Data, req.Data)
	if err != nil {
		return nil, fmt.Errorf("fleet: loading dataset: %w", err)
	}
	m, err := kge.OpenMapped(req.Model)
	if err != nil {
		return nil, fmt.Errorf("fleet: loading model: %w", err)
	}
	// The coordinator needs only the fingerprint; workers map their own
	// copies.
	fingerprint := kge.Fingerprint(m)
	m.Close()

	opts := req.Options.CoreOptions()
	relations := ds.Train.RelationIDs()
	optionsHash := jobs.OptionsHash(strategy.Name(), ds.Train, opts, relations)
	id := SweepID(fingerprint, optionsHash)

	c.mu.Lock()
	defer c.mu.Unlock()
	if sw, ok := c.sweeps[id]; ok && sw.state != sweepFailed {
		return sw, nil // join the in-flight (or finished) identical sweep
	}

	sw := &sweep{
		id:          id,
		req:         req,
		fingerprint: fingerprint,
		optionsHash: optionsHash,
		relations:   relations,
		relSet:      make(map[kg.RelationID]bool, len(relations)),
		done:        make(map[kg.RelationID]bool, len(relations)),
		doneBy:      make(map[string]bool),
		state:       sweepRunning,
		doneCh:      make(chan struct{}),
		start:       c.cfg.now(),
	}
	for _, r := range relations {
		sw.relSet[r] = true
	}

	pendingRels := relations
	if req.Checkpoint != "" {
		hdr := jobs.Header{
			Fingerprint:    fingerprint,
			OptionsHash:    optionsHash,
			Strategy:       strategy.Name(),
			TotalRelations: len(relations),
		}
		sw.journal, sw.records, pendingRels, err = jobs.Open(req.Checkpoint, hdr, req.Resume, relations)
		if err != nil {
			return nil, err
		}
		for _, rec := range sw.records {
			sw.done[rec.Relation] = true
		}
		sw.resumed = len(sw.records)
	}

	// Shard the not-yet-done relations into units. After a crash-resume the
	// boundaries differ from the first incarnation's; completions from
	// zombie workers are reconciled per relation, so that is fine.
	unitSize := req.UnitRelations
	if unitSize == 0 {
		unitSize = 1
	}
	for off := 0; off < len(pendingRels); off += unitSize {
		end := off + unitSize
		if end > len(pendingRels) {
			end = len(pendingRels)
		}
		sw.units = append(sw.units, &unit{
			id:        len(sw.units),
			relations: append([]kg.RelationID(nil), pendingRels[off:end]...),
			state:     unitPending,
		})
	}

	c.sweeps[id] = sw
	c.order = append(c.order, id)
	c.sweepsSubmitted.Inc()
	c.cfg.Logf("fleet: sweep %s submitted: %d relations in %d units (resumed %d), fingerprint %.12s",
		id, len(relations), len(sw.units), sw.resumed, fingerprint)
	if len(sw.done) == len(sw.relations) {
		c.completeSweepLocked(sw) // fully recovered from the WAL
	}
	return sw, nil
}

// touchWorkerLocked records that a worker was just heard from.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerState {
	if name == "" {
		name = "anonymous"
	}
	ws, ok := c.workers[name]
	if !ok {
		ws = &workerState{name: name}
		c.workers[name] = ws
		c.cfg.Logf("fleet: worker %s registered", name)
	}
	ws.lastSeen = now
	return ws
}

// expireLocked returns every overdue leased unit to the pending queue.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.state != sweepRunning {
			continue
		}
		for _, u := range sw.units {
			if u.state == unitLeased && now.After(u.deadline) {
				c.cfg.Logf("fleet: lease expired: sweep %s unit %d (worker %s, attempt %d) — reassigning",
					sw.id, u.id, u.worker, u.attempts)
				u.state = unitPending
				u.worker = ""
				sw.reassigned++
				c.reassigned.Inc()
			}
		}
	}
}

func (c *Coordinator) handleRegister(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	c.touchWorkerLocked(req.Worker, c.cfg.now())
	c.mu.Unlock()
	return RegisterResponse{
		Status:  StatusOK,
		LeaseMS: c.cfg.LeaseTTL.Milliseconds(),
		PollMS:  c.cfg.PollInterval.Milliseconds(),
	}
}

func (c *Coordinator) handleLease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(req.Worker, now)
	c.expireLocked(now)

	for _, id := range c.order {
		sw := c.sweeps[id]
		if sw.state != sweepRunning {
			continue
		}
		u := c.leaseUnitLocked(sw, req.Worker, now)
		if sw.state != sweepRunning {
			continue // leaseUnitLocked failed the sweep (attempt cap)
		}
		if u == nil {
			continue
		}
		return LeaseResponse{Status: StatusUnit, Unit: &Unit{
			SweepID:        sw.id,
			UnitID:         u.id,
			Data:           sw.req.Data,
			Model:          sw.req.Model,
			Fingerprint:    sw.fingerprint,
			OptionsHash:    sw.optionsHash,
			Strategy:       sw.req.Strategy,
			Options:        sw.req.Options,
			Relations:      append([]kg.RelationID(nil), u.relations...),
			SweepRelations: sw.relations,
			LeaseMS:        c.cfg.LeaseTTL.Milliseconds(),
		}}
	}

	return LeaseResponse{Status: StatusWait, RetryMS: c.cfg.PollInterval.Milliseconds()}
}

// leaseUnitLocked finds sweep sw's next pending unit and leases it to
// worker. It trims relations other deliveries already covered, retires
// empty units, and fails the sweep when a unit exhausts its attempts.
func (c *Coordinator) leaseUnitLocked(sw *sweep, worker string, now time.Time) *unit {
	for _, u := range sw.units {
		if u.state != unitPending {
			continue
		}
		var rem []kg.RelationID
		for _, r := range u.relations {
			if !sw.done[r] {
				rem = append(rem, r)
			}
		}
		if len(rem) == 0 {
			u.state = unitDone
			continue
		}
		if u.attempts >= c.cfg.MaxAttempts {
			c.failSweepLocked(sw, fmt.Errorf("fleet: unit %d failed %d times (last worker %s); giving up",
				u.id, u.attempts, u.worker))
			return nil
		}
		u.relations = rem
		u.state = unitLeased
		u.worker = worker
		u.deadline = now.Add(c.cfg.LeaseTTL)
		u.attempts++
		c.leases.Inc()
		return u
	}
	return nil
}

func (c *Coordinator) handleHeartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.touchWorkerLocked(req.Worker, now)
	sw, ok := c.sweeps[req.SweepID]
	if !ok {
		return HeartbeatResponse{Status: StatusUnknown}
	}
	u := sw.unitByID(req.UnitID)
	if sw.state == sweepRunning && u != nil && u.state == unitLeased && u.worker == req.Worker {
		u.deadline = now.Add(c.cfg.LeaseTTL)
		return HeartbeatResponse{Status: StatusOK}
	}
	return HeartbeatResponse{Status: StatusAbandon}
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !wire.Decode(w, r, completeBodyLimit, &req) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	ws := c.touchWorkerLocked(req.Worker, now)
	sw, ok := c.sweeps[req.SweepID]
	if !ok || sw.state != sweepRunning {
		c.unknownCompletes.Inc()
		wire.WriteJSON(w, http.StatusOK, CompleteResponse{Status: StatusUnknown})
		return
	}

	accepted, dups := 0, 0
	for _, rec := range req.Records {
		switch {
		case !sw.relSet[rec.Relation]:
			c.mismatched.Inc()
		case sw.done[rec.Relation]:
			dups++
		default:
			if sw.journal != nil {
				if err := sw.journal.Append(rec); err != nil {
					c.failSweepLocked(sw, fmt.Errorf("fleet: journaling unit %d: %w", req.UnitID, err))
					wire.WriteError(w, http.StatusInternalServerError, "journal append failed: %v", err)
					return
				}
			}
			sw.done[rec.Relation] = true
			sw.records = append(sw.records, rec)
			accepted++
		}
	}
	sw.duplicates += dups
	c.duplicates.Add(uint64(dups))
	c.records.Add(uint64(accepted))
	if accepted > 0 {
		sw.doneBy[ws.name] = true
	}

	if u := sw.unitByID(req.UnitID); u != nil && u.state == unitLeased && u.worker == req.Worker {
		u.state = unitDone
		ws.unitsDone++
	}
	// Retire any unit whose relations are now fully covered (a zombie's
	// delivery can complete a unit leased to someone else; the someone
	// else's heartbeat then reports abandon).
	for _, u := range sw.units {
		if u.state == unitDone {
			continue
		}
		covered := true
		for _, rel := range u.relations {
			if !sw.done[rel] {
				covered = false
				break
			}
		}
		if covered {
			u.state = unitDone
		}
	}

	c.cfg.Logf("fleet: sweep %s unit %d complete: worker=%s accepted=%d duplicates=%d (%d/%d relations done)",
		sw.id, req.UnitID, ws.name, accepted, dups, len(sw.done), len(sw.relations))
	if len(sw.done) == len(sw.relations) {
		c.completeSweepLocked(sw)
	}
	wire.WriteJSON(w, http.StatusOK, CompleteResponse{Status: StatusOK, Accepted: accepted, Duplicates: dups})
}

func (c *Coordinator) handleFail(req FailRequest) FailResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.Worker, c.cfg.now())
	if sw, ok := c.sweeps[req.SweepID]; ok && sw.state == sweepRunning {
		if u := sw.unitByID(req.UnitID); u != nil && u.state == unitLeased && u.worker == req.Worker {
			c.cfg.Logf("fleet: sweep %s unit %d failed on worker %s (attempt %d, permanent=%t): %s",
				sw.id, u.id, req.Worker, u.attempts, req.Permanent, req.Error)
			u.state = unitPending
			u.worker = ""
			sw.retriedUnits++
			c.retried.Inc()
		}
	}
	return FailResponse{Status: StatusOK}
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !wire.Decode(w, r, controlBodyLimit, &req) {
		return
	}
	sw, err := c.addSweep(req)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := c.wait(r.Context(), sw)
	switch {
	case r.Context().Err() != nil:
		// client gone; the sweep keeps running
	case err != nil:
		wire.WriteError(w, http.StatusInternalServerError, "%v", err)
	default:
		wire.WriteJSON(w, http.StatusOK, res)
	}
}

func (sw *sweep) unitByID(id int) *unit {
	if id < 0 || id >= len(sw.units) {
		return nil
	}
	return sw.units[id]
}

// completeSweepLocked splices the records and publishes the result.
func (c *Coordinator) completeSweepLocked(sw *sweep) {
	if sw.state != sweepRunning {
		return
	}
	if sw.journal != nil {
		sw.journal.Close()
		sw.journal = nil
	}
	// Records accumulate in completion order; sort by relation so the
	// response (and its aggregate stats fold) is deterministic regardless
	// of which worker won which unit.
	sort.Slice(sw.records, func(i, j int) bool { return sw.records[i].Relation < sw.records[j].Relation })
	res := jobs.MergeRecords(sw.records)
	facts := make([]jobs.FactRecord, len(res.Facts))
	for i, f := range res.Facts {
		facts[i] = jobs.FactRecord{S: f.Triple.S, R: f.Triple.R, O: f.Triple.O, Rank: f.Rank}
	}
	sw.result = &SweepResponse{
		SweepID:     sw.id,
		Fingerprint: sw.fingerprint,
		Facts:       facts,
		Generated:   res.Stats.Generated,
		ScoreSweeps: res.Stats.ScoreSweeps,
		RuntimeMS:   c.cfg.now().Sub(sw.start).Milliseconds(),
		WeightMS:    res.Stats.WeightTime.Milliseconds(),
		GenerateMS:  res.Stats.GenerateTime.Milliseconds(),
		RankMS:      res.Stats.RankTime.Milliseconds(),
		Fleet: FleetInfo{
			Units:            len(sw.units),
			Workers:          len(sw.doneBy),
			Reassigned:       sw.reassigned,
			DuplicateRecords: sw.duplicates,
			RetriedUnits:     sw.retriedUnits,
			Resumed:          sw.resumed,
			TotalRelations:   len(sw.relations),
		},
	}
	sw.state = sweepDone
	close(sw.doneCh)
	c.cfg.Logf("fleet: sweep %s complete: %d facts from %d relations (workers=%d reassigned=%d duplicates=%d resumed=%d)",
		sw.id, len(facts), len(sw.relations), len(sw.doneBy), sw.reassigned, sw.duplicates, sw.resumed)
}

func (c *Coordinator) failSweepLocked(sw *sweep, err error) {
	if sw.state != sweepRunning {
		return
	}
	if sw.journal != nil {
		sw.journal.Close()
		sw.journal = nil
	}
	sw.state = sweepFailed
	sw.err = err
	close(sw.doneCh)
	c.cfg.Logf("fleet: sweep %s FAILED: %v", sw.id, err)
}
