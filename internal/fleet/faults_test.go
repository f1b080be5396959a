package fleet

// In-process fault matrix: a coordinator behind an httptest server and
// workers whose HTTP clients go through a fault-injecting RoundTripper. Each
// fault fires on a protocol event (a granted lease, a delivery, a
// reassignment), never on elapsed time, and the coordinator's clock is a fake
// that moves only when a healthy worker is told to wait while a faulty one
// holds a lease. A clean run therefore cannot reassign anything, and a faulty
// worker's lease expires exactly once every other unit is done.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/wire"
)

// matrixRelations is the fixture's relation count; with one relation per
// unit it is also the unit count.
const matrixRelations = 12

// simLease is the fake lease TTL. Only the heartbeat cadence (a third of it)
// is measured on the wall clock.
const simLease = 30 * time.Millisecond

// matrixArtifacts saves a 12-relation dataset and an untrained (seeded, hence
// deterministic) checkpoint, and returns the sweep request every scenario runs
// together with the facts a single-process jobs.Run of it finds.
func matrixArtifacts(t *testing.T) (SweepRequest, []jobs.FactRecord) {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name:         "fleet-matrix",
		NumEntities:  1000,
		NumRelations: matrixRelations,
		NumTriples:   6000,
		NumTypes:     6,
		EntityZipf:   1.0,
		RelationZipf: 0.5,
		ClosureProb:  0.2,
		NoiseProb:    0.05,
		ValidFrac:    0.02,
		TestFrac:     0.02,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	req := SweepRequest{
		Data:          filepath.Join(dir, "ds"),
		Model:         filepath.Join(dir, "model.kge"),
		Strategy:      "graph_degree",
		Options:       SweepOptions{TopN: 100, MaxCandidates: 200, Seed: 7},
		UnitRelations: 1,
	}
	if err := kg.SaveDataset(ds, req.Data); err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kge.SaveFlatFile(m, req.Model); err != nil {
		t.Fatal(err)
	}
	want := singleProcessFacts(t, req)
	if len(want) == 0 {
		t.Fatal("the single-process sweep discovered no facts")
	}
	return req, want
}

// singleProcessFacts runs req's sweep with jobs.Run in this process.
func singleProcessFacts(t *testing.T, req SweepRequest) []jobs.FactRecord {
	t.Helper()
	ds, err := kg.LoadDataset(req.Data, req.Data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.OpenMapped(req.Model)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	strategy, err := core.StrategyByName(req.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := jobs.Run(context.Background(), jobs.Spec{
		Model: m, Graph: ds.Train, Strategy: strategy, Options: req.Options.CoreOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	facts := make([]jobs.FactRecord, len(res.Facts))
	for i, f := range res.Facts {
		facts[i] = jobs.FactRecord{S: f.Triple.S, R: f.Triple.R, O: f.Triple.O, Rank: f.Rank}
	}
	return facts
}

// assertFacts requires the fleet's spliced facts to equal the single-process
// ones, fact for fact and rank for rank.
func assertFacts(t *testing.T, got, want []jobs.FactRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fleet found %d facts, single-process %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fact %d: fleet %+v, single-process %+v", i, got[i], want[i])
		}
	}
}

// metric scrapes one counter from c's /metrics.
func metric(t *testing.T, c *Coordinator, name string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(rec.Body.String())
	if m == nil {
		t.Fatalf("metric %s missing:\n%s", name, rec.Body.String())
	}
	v, _ := strconv.Atoi(m[1])
	return v
}

// fault is what a worker's transport does to its traffic.
type fault int

const (
	healthy fault = iota
	// killMidUnit cancels the worker's context when it is granted a lease
	// after some unit is done anywhere, then fails every later request.
	killMidUnit
	// muteHeartbeats drops every /heartbeat and holds each /complete until
	// the coordinator has reassigned that unit.
	muteHeartbeats
	// duplicateDelivery sends every /complete twice.
	duplicateDelivery
	// hang blocks every request after the first granted lease until the
	// request's context or the test ends.
	hang
)

var errInjected = errors.New("fleet test: injected transport failure")

// fleetSim is one in-process fleet: a swappable coordinator behind an
// httptest server, a fake clock, and the workers' fault transports.
type fleetSim struct {
	t    *testing.T
	ctx  context.Context // ends at stop or cleanup; workers and hung requests return then
	stop context.CancelFunc
	srv  *httptest.Server
	cfg  Config // for every coordinator booted; now and Logf point back here

	// expire lets a healthy worker's StatusWait move the clock past the
	// lease TTL. It is set only where a faulty worker holds a lease then.
	expire bool
	// crashAfter > 0 takes the coordinator down (503 to everything) right
	// after the request that completes that many relations; crashed closes.
	crashAfter int
	crashed    chan struct{}

	// faulted closes once the faulty worker's fault has fired; healthy
	// workers lease nothing before it, so the fault always gets its turn.
	faulted   chan struct{}
	faultOnce sync.Once

	// serveMu is held exclusively by each /complete, the one request that
	// journals, so a crash falls between two deliveries, never inside one.
	serveMu sync.RWMutex
	coord   *Coordinator // the serving coordinator; nil while crashed

	mu      sync.Mutex
	clock   time.Time
	changed chan struct{} // closed and replaced on every coordinator log line

	workers sync.WaitGroup
}

func newFleetSim(t *testing.T) *fleetSim {
	ctx, cancel := context.WithCancel(context.Background())
	s := &fleetSim{
		t:       t,
		ctx:     ctx,
		stop:    cancel,
		crashed: make(chan struct{}),
		faulted: make(chan struct{}),
		clock:   time.Unix(1_000_000, 0),
		changed: make(chan struct{}),
	}
	s.cfg = Config{LeaseTTL: simLease, PollInterval: time.Millisecond, Logf: s.logf, now: s.now}
	s.srv = httptest.NewServer(s)
	t.Cleanup(func() {
		cancel()
		s.workers.Wait()
		s.srv.Close()
	})
	return s
}

func (s *fleetSim) now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

// logf wakes every await. The coordinator calls it under its lock, after
// or just before a state change, so a woken waiter sees the change once it
// gets the lock itself.
func (s *fleetSim) logf(string, ...any) {
	s.mu.Lock()
	close(s.changed)
	s.changed = make(chan struct{})
	s.mu.Unlock()
}

// await blocks until cond holds on the serving coordinator's state.
func (s *fleetSim) await(ctx context.Context, cond func(c *Coordinator) bool) error {
	for {
		s.mu.Lock()
		changed := s.changed
		s.mu.Unlock()
		if s.inspect(cond) {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// inspect evaluates f under the serving coordinator's lock; false while
// the coordinator is down.
func (s *fleetSim) inspect(f func(c *Coordinator) bool) bool {
	s.serveMu.RLock()
	c := s.coord
	s.serveMu.RUnlock()
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return f(c)
}

func (s *fleetSim) fire() { s.faultOnce.Do(func() { close(s.faulted) }) }

// boot starts a coordinator on s.cfg, submits req to it and makes it the one
// serving.
func (s *fleetSim) boot(req SweepRequest) (*Coordinator, *sweep) {
	s.t.Helper()
	c := New(s.cfg)
	sw, err := c.addSweep(req)
	if err != nil {
		s.t.Fatal(err)
	}
	s.serveMu.Lock()
	s.coord = c
	s.serveMu.Unlock()
	return c, sw
}

// result waits for sw to finish and returns its response.
func (s *fleetSim) result(c *Coordinator, sw *sweep) *SweepResponse {
	s.t.Helper()
	select {
	case <-sw.doneCh:
	case <-time.After(2 * time.Minute):
		s.t.Fatal("sweep did not finish")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sw.err != nil {
		s.t.Fatal(sw.err)
	}
	return sw.result
}

func (s *fleetSim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/complete" {
		s.serveMu.RLock()
		defer s.serveMu.RUnlock()
	} else {
		s.serveMu.Lock()
		defer s.serveMu.Unlock()
	}
	if s.coord == nil {
		wire.WriteError(w, http.StatusServiceUnavailable, "coordinator down")
		return
	}
	s.coord.Handler().ServeHTTP(w, r)
	if s.crashAfter > 0 && r.URL.Path == "/complete" && relationsDone(s.coord) >= s.crashAfter {
		s.coord = nil
		s.crashAfter = 0
		close(s.crashed)
	}
}

// relationsDone counts the relations c has accepted across its sweeps.
func relationsDone(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, sw := range c.sweeps {
		n += len(sw.done)
	}
	return n
}

// startWorker runs one worker whose traffic goes through a transport
// injecting f. The returned channel receives Run's result.
func (s *fleetSim) startWorker(name string, f fault) <-chan error {
	ctx, cancel := context.WithCancel(s.ctx)
	ft := &faultTransport{sim: s, fault: f, kill: cancel, base: s.srv.Client().Transport}
	w := NewWorker(WorkerConfig{Coordinator: s.srv.URL, Name: name, Client: &http.Client{Transport: ft}})
	done := make(chan error, 1)
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		defer cancel()
		done <- w.Run(ctx)
	}()
	return done
}

// faultTransport is the RoundTripper behind one worker's http.Client.
type faultTransport struct {
	sim   *fleetSim
	fault fault
	kill  context.CancelFunc
	base  http.RoundTripper
	down  atomic.Bool // killed or hung: every later request fails or blocks
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := ft.sim
	if ft.down.Load() {
		if ft.fault == hang {
			select {
			case <-req.Context().Done():
			case <-s.ctx.Done():
			}
		}
		return nil, errInjected
	}

	path := req.URL.Path
	switch {
	case ft.fault == healthy && path == "/lease":
		select {
		case <-s.faulted:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	case ft.fault == muteHeartbeats && path == "/heartbeat":
		return nil, errInjected
	case ft.fault == muteHeartbeats && path == "/complete":
		var cr CompleteRequest
		if err := decodeBody(req, &cr); err != nil {
			return nil, err
		}
		s.fire()
		err := s.await(req.Context(), func(c *Coordinator) bool {
			sw, ok := c.sweeps[cr.SweepID]
			if !ok {
				return true
			}
			u := sw.unitByID(cr.UnitID)
			return u == nil || u.state != unitLeased || u.worker != cr.Worker
		})
		if err != nil {
			return nil, err
		}
	case ft.fault == duplicateDelivery && path == "/complete":
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		first := req.Clone(req.Context())
		first.Body = body
		resp, err := ft.base.RoundTrip(first)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		defer s.fire()
	}

	resp, err := ft.base.RoundTrip(req)
	if err != nil || path != "/lease" {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var lease LeaseResponse
	if err := json.Unmarshal(data, &lease); err != nil {
		return nil, err
	}
	switch {
	case lease.Status == StatusWait && ft.fault == healthy && s.expire:
		s.mu.Lock()
		s.clock = s.clock.Add(s.cfg.LeaseTTL + time.Millisecond)
		s.mu.Unlock()
	case lease.Status == StatusUnit && ft.fault == killMidUnit &&
		s.inspect(func(c *Coordinator) bool { return c.records.Value() > 0 }):
		ft.down.Store(true)
		ft.kill()
		s.fire()
	case lease.Status == StatusUnit && ft.fault == hang:
		ft.down.Store(true)
		s.fire()
	}
	return resp, nil
}

// decodeBody decodes a copy of req's JSON body, leaving req's own intact.
func decodeBody(req *http.Request, into any) error {
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(into)
}

// TestFleetFaultMatrix runs the sweep with one healthy worker beside a worker
// under each fault. Every row must splice the single-process facts, accept
// exactly one record per relation, and account for the fault exactly.
func TestFleetFaultMatrix(t *testing.T) {
	req, want := matrixArtifacts(t)
	for _, sc := range []struct {
		name       string
		fault      fault // the second worker's; the first is healthy
		reassigned int
		duplicates [2]int // inclusive bounds
	}{
		{name: "clean", fault: healthy},
		{name: "worker-killed-mid-unit", fault: killMidUnit, reassigned: 1},
		// The muted worker's held delivery races the reassigned worker's
		// sweep of the same unit: whichever is second is a duplicate, unless
		// the coordinator abandons the reassigned worker first.
		{name: "dropped-heartbeats", fault: muteHeartbeats, reassigned: 1, duplicates: [2]int{0, 1}},
		{name: "duplicate-delivery", fault: duplicateDelivery, duplicates: [2]int{1, matrixRelations}},
		{name: "worker-hang-mid-unit", fault: hang, reassigned: 1},
	} {
		t.Run(sc.name, func(t *testing.T) {
			s := newFleetSim(t)
			s.expire = sc.reassigned > 0
			c, sw := s.boot(req)
			if sc.fault == healthy {
				s.fire()
			}
			w0 := s.startWorker("w0", healthy)
			s.startWorker("w1", sc.fault)
			resp := s.result(c, sw)

			assertFacts(t, resp.Facts, want)
			if got := resp.Fleet.Reassigned; got != sc.reassigned {
				t.Errorf("reassigned = %d, want %d", got, sc.reassigned)
			}
			if got := resp.Fleet.DuplicateRecords; got < sc.duplicates[0] || got > sc.duplicates[1] {
				t.Errorf("duplicates = %d, want %d..%d", got, sc.duplicates[0], sc.duplicates[1])
			}
			if resp.Fleet.Resumed != 0 {
				t.Errorf("resumed = %d, want 0 without a checkpoint", resp.Fleet.Resumed)
			}
			// Exactly one accepted record per relation, ever: dedup makes
			// double-splicing impossible, and this pins it.
			if got := metric(t, c, "kgfleet_records_total"); got != matrixRelations {
				t.Errorf("kgfleet_records_total = %d, want %d", got, matrixRelations)
			}
			s.stop()
			if err := <-w0; !errors.Is(err, context.Canceled) {
				t.Errorf("healthy worker ended with %v, want it running until stopped", err)
			}
		})
	}
}

// TestFleetCoordinatorCrashResume takes the coordinator down right after it
// journals its third relation and brings up a second one with Resume on the
// same WAL. The workers ride out the outage, reattach, and the second
// coordinator splices the single-process facts from 3 recovered and 9 new
// relations.
func TestFleetCoordinatorCrashResume(t *testing.T) {
	req, want := matrixArtifacts(t)
	req.Checkpoint = filepath.Join(t.TempDir(), "sweep.wal")
	const crashAfter = 3

	s := newFleetSim(t)
	s.crashAfter = crashAfter
	s.fire()
	first, _ := s.boot(req)
	var workers []<-chan error
	for i := 0; i < 2; i++ {
		workers = append(workers, s.startWorker(fmt.Sprintf("w%d", i), healthy))
	}
	<-s.crashed

	req.Resume = true
	second, sw := s.boot(req)
	resp := s.result(second, sw)

	assertFacts(t, resp.Facts, want)
	if resp.Fleet.Resumed != crashAfter {
		t.Errorf("resumed %d of %d relations from the WAL, want %d", resp.Fleet.Resumed, matrixRelations, crashAfter)
	}
	if resp.Fleet.DuplicateRecords > matrixRelations {
		t.Errorf("duplicates = %d, want <= %d", resp.Fleet.DuplicateRecords, matrixRelations)
	}
	// Across both incarnations every relation was accepted exactly once.
	if got := metric(t, first, "kgfleet_records_total") + metric(t, second, "kgfleet_records_total"); got != matrixRelations {
		t.Errorf("kgfleet_records_total over both coordinators = %d, want %d", got, matrixRelations)
	}
	s.stop()
	for _, w := range workers {
		if err := <-w; !errors.Is(err, context.Canceled) {
			t.Errorf("worker after the coordinator restart ended with %v, want it running until stopped", err)
		}
	}
}
