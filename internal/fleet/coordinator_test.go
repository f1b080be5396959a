package fleet

// White-box tests of the coordinator's lease/reassignment state machine:
// a fake-clock walk through expiry, reassignment, dedup, and the attempt
// cap, plus a concurrent protocol hammer meant to run under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// tinyArtifacts saves a tiny dataset and an untrained (but seeded, hence
// deterministic) checkpoint for coordinator tests.
func tinyArtifacts(t testing.TB) (dataDir, modelPath string) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(t.TempDir(), "m.kge")
	if err := kge.SaveFlatFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

func testRequest(dataDir, modelPath string) SweepRequest {
	return SweepRequest{
		Data:     dataDir,
		Model:    modelPath,
		Strategy: "graph_degree",
		Options:  SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7},
	}
}

// post drives one coordinator endpoint through the full HTTP mux.
func post(t testing.TB, c *Coordinator, path string, body any, into any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("POST %s: response %q is not JSON: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// TestLeaseExpiryReassignmentAndDedup walks the state machine with a fake
// clock: a worker leases a unit and vanishes, the lease expires, the unit is
// reassigned and completed by someone else, and the zombie's late delivery
// is detected as a duplicate — never double-spliced.
func TestLeaseExpiryReassignmentAndDedup(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	advance := func(d time.Duration) { clockMu.Lock(); clock = clock.Add(d); clockMu.Unlock() }

	c := New(Config{LeaseTTL: 10 * time.Second, now: now})
	sw, err := c.addSweep(testRequest(dataDir, modelPath))
	if err != nil {
		t.Fatal(err)
	}

	var lease LeaseResponse
	post(t, c, "/lease", LeaseRequest{Worker: "a"}, &lease)
	if lease.Status != StatusUnit {
		t.Fatalf("lease: %+v", lease)
	}
	u := lease.Unit

	var hb HeartbeatResponse
	post(t, c, "/heartbeat", HeartbeatRequest{Worker: "a", SweepID: u.SweepID, UnitID: u.UnitID}, &hb)
	if hb.Status != StatusOK {
		t.Fatalf("live heartbeat: %+v", hb)
	}

	// Worker a goes silent past the TTL; the next lease poll (worker b)
	// expires it and is handed the same relations.
	advance(11 * time.Second)
	var lease2 LeaseResponse
	post(t, c, "/lease", LeaseRequest{Worker: "b"}, &lease2)
	if lease2.Status != StatusUnit {
		t.Fatalf("reassigned lease: %+v", lease2)
	}
	if lease2.Unit.Relations[0] != u.Relations[0] {
		// Unit scan order is deterministic, so b gets a's expired unit first.
		t.Fatalf("worker b got unit %d (relation %v), want a's expired unit %d (relation %v)",
			lease2.Unit.UnitID, lease2.Unit.Relations, u.UnitID, u.Relations)
	}
	if got := c.reassignedTotal; got != 1 {
		t.Errorf("reassignedTotal = %d, want 1", got)
	}

	// The original worker's heartbeat now reports abandonment.
	post(t, c, "/heartbeat", HeartbeatRequest{Worker: "a", SweepID: u.SweepID, UnitID: u.UnitID}, &hb)
	if hb.Status != StatusAbandon {
		t.Fatalf("zombie heartbeat: %+v", hb)
	}

	// b completes the unit; a's late duplicate delivery is counted and
	// dropped, not spliced a second time.
	rec := jobs.RelationRecord{Relation: u.Relations[0]}
	var comp CompleteResponse
	post(t, c, "/complete", CompleteRequest{Worker: "b", SweepID: u.SweepID, UnitID: lease2.Unit.UnitID,
		Records: []jobs.RelationRecord{rec}}, &comp)
	if comp.Status != StatusOK || comp.Accepted != 1 || comp.Duplicates != 0 {
		t.Fatalf("complete by b: %+v", comp)
	}
	post(t, c, "/complete", CompleteRequest{Worker: "a", SweepID: u.SweepID, UnitID: u.UnitID,
		Records: []jobs.RelationRecord{rec}}, &comp)
	if comp.Status != StatusOK || comp.Accepted != 0 || comp.Duplicates != 1 {
		t.Fatalf("zombie complete: %+v", comp)
	}
	if len(sw.records) != 1 {
		t.Fatalf("sweep spliced %d records for one relation", len(sw.records))
	}

	// Unknown sweep IDs are answered, not crashed on.
	post(t, c, "/complete", CompleteRequest{Worker: "x", SweepID: "nope", UnitID: 0,
		Records: []jobs.RelationRecord{rec}}, &comp)
	if comp.Status != StatusUnknown {
		t.Fatalf("unknown sweep complete: %+v", comp)
	}
	post(t, c, "/heartbeat", HeartbeatRequest{Worker: "x", SweepID: "nope"}, &hb)
	if hb.Status != StatusUnknown {
		t.Fatalf("unknown sweep heartbeat: %+v", hb)
	}
}

// TestFailReturnsUnitAndAttemptCapFailsSweep exercises the explicit-failure
// path and the retry bound: a unit leased MaxAttempts times fails the whole
// sweep rather than retrying forever.
func TestFailReturnsUnitAndAttemptCapFailsSweep(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	c := New(Config{LeaseTTL: time.Hour, MaxAttempts: 2})
	sw, err := c.addSweep(testRequest(dataDir, modelPath))
	if err != nil {
		t.Fatal(err)
	}

	var lease LeaseResponse
	post(t, c, "/lease", LeaseRequest{Worker: "a"}, &lease)
	u := lease.Unit
	var fail FailResponse
	post(t, c, "/fail", FailRequest{Worker: "a", SweepID: u.SweepID, UnitID: u.UnitID, Error: "boom"}, &fail)
	if fail.Status != StatusOK {
		t.Fatalf("fail: %+v", fail)
	}
	if c.retriedTotal != 1 {
		t.Errorf("retriedTotal = %d, want 1", c.retriedTotal)
	}

	// Attempt 2 leases the same unit again; its failure exhausts the cap,
	// so the next lease scan fails the sweep.
	post(t, c, "/lease", LeaseRequest{Worker: "b"}, &lease)
	if lease.Status != StatusUnit || lease.Unit.UnitID != u.UnitID {
		t.Fatalf("retry lease: %+v", lease)
	}
	post(t, c, "/fail", FailRequest{Worker: "b", SweepID: u.SweepID, UnitID: u.UnitID, Error: "boom again"}, &fail)
	post(t, c, "/lease", LeaseRequest{Worker: "c"}, &lease)

	select {
	case <-sw.doneCh:
	default:
		t.Fatal("sweep still running after the attempt cap")
	}
	if sw.err == nil {
		t.Fatal("sweep failed with nil error")
	}
}

// TestCoordinatorConcurrentProtocol hammers the full protocol concurrently on
// the wall clock — three in-process workers, one of which drops its
// heartbeats and holds each delivery until the Run ticker has expired its
// lease, plus a rogue client sending junk heartbeats, completions, and
// failure reports — and requires the spliced result to exactly match a
// single-process jobs.Run. Run with -race, this is the lease state machine's
// data-race gate.
func TestCoordinatorConcurrentProtocol(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	req := testRequest(dataDir, modelPath)
	s := newFleetSim(t)
	s.cfg.LeaseTTL, s.cfg.PollInterval, s.cfg.now = 500*time.Millisecond, 20*time.Millisecond, nil
	c, sw := s.boot(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	// The muted worker forces expiry, reassignment, and duplicate-delivery
	// reconciliation mid-hammer.
	s.startWorker("w0", muteHeartbeats)
	s.startWorker("w1", healthy)
	s.startWorker("w2", healthy)

	// Rogue client: junk registrations, heartbeats for random units,
	// completions for random sweeps, failure reports. None of it may
	// corrupt state or race.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// t.Fatal is off-limits in a goroutine, so fire and forget.
		fire := func(path string, body any) {
			b, _ := json.Marshal(body)
			req := httptest.NewRequest("POST", path, bytes.NewReader(b))
			c.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}
		rng := rand.New(rand.NewSource(42))
		for ctx.Err() == nil {
			switch rng.Intn(4) {
			case 0:
				fire("/register", RegisterRequest{Worker: "rogue"})
			case 1:
				fire("/heartbeat", HeartbeatRequest{Worker: "rogue", SweepID: "bogus", UnitID: rng.Intn(10)})
			case 2:
				fire("/complete", CompleteRequest{Worker: "rogue", SweepID: "bogus",
					Records: []jobs.RelationRecord{{Relation: kg.RelationID(rng.Intn(10))}}})
			case 3:
				fire("/fail", FailRequest{Worker: "rogue", SweepID: "bogus", UnitID: rng.Intn(10), Error: "junk"})
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	resp := s.result(c, sw)
	cancel()
	wg.Wait()

	assertFacts(t, resp.Facts, singleProcessFacts(t, req))
	if resp.Fleet.TotalRelations != len(sw.relations) {
		t.Errorf("TotalRelations = %d, want %d", resp.Fleet.TotalRelations, len(sw.relations))
	}
}

// TestSubmitJoinsIdenticalSweep: two concurrent submissions of the same
// request share one sweep (and one result) instead of sweeping twice.
func TestSubmitJoinsIdenticalSweep(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	c := New(Config{PollInterval: 20 * time.Millisecond})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w0", MaxIdle: time.Minute})
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	defer func() { cancel(); <-done }()

	req := testRequest(dataDir, modelPath)
	results := make(chan *SweepResponse, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := c.Submit(ctx, req)
			if err != nil {
				t.Errorf("Submit: %v", err)
			}
			results <- resp
		}()
	}
	r1, r2 := <-results, <-results
	if r1 == nil || r2 == nil {
		t.Fatal("nil result")
	}
	if r1.SweepID != r2.SweepID {
		t.Errorf("sweep IDs differ: %s vs %s", r1.SweepID, r2.SweepID)
	}
	c.mu.Lock()
	n := len(c.sweeps)
	c.mu.Unlock()
	if n != 1 {
		t.Errorf("%d sweeps for identical submissions, want 1", n)
	}
}
