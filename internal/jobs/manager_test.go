package jobs

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/wire"
)

// stubDiscover returns a discover function that reports its concurrency
// through the counters and blocks until release is closed (nil release
// returns immediately).
func stubDiscover(inFlight, peak *int64, release chan struct{}) discoverFunc {
	return func(ctx context.Context, _ kge.Model, _ *kg.Graph, _ core.Strategy, opts core.Options) (*core.Result, error) {
		n := atomic.AddInt64(inFlight, 1)
		defer atomic.AddInt64(inFlight, -1)
		for {
			old := atomic.LoadInt64(peak)
			if n <= old || atomic.CompareAndSwapInt64(peak, old, n) {
				break
			}
		}
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		res := &core.Result{}
		for _, r := range opts.Relations {
			fact := core.Fact{Triple: kg.Triple{S: 0, R: r, O: 1}, Rank: 1}
			res.Facts = append(res.Facts, fact)
			if opts.OnRelationDone != nil {
				opts.OnRelationDone(core.RelationDone{
					Relation: r,
					Facts:    []core.Fact{fact},
					Stats:    core.RelationStats{Relation: r, Generated: 2, ScoreSweeps: 1, Facts: 1},
				})
			}
		}
		return res, nil
	}
}

// managerSpec is a minimal spec for stubbed discover functions; the stub
// never touches the model or graph beyond the relation list.
func managerSpec(t *testing.T) Spec {
	ds, m, fp := testModel(t)
	return Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(),
		Options:     core.Options{TopN: 40, MaxCandidates: 30, Seed: 7, Relations: ds.Train.RelationIDs()},
		Fingerprint: fp,
	}
}

func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := j.Status()
		if st.State == want {
			return st
		}
		if st.State.Finished() && st.State != want {
			t.Fatalf("job %s finished as %s, want %s (err: %s)", st.ID, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s (now %s)", j.ID(), want, j.Status().State)
	return Status{}
}

func TestManagerRunsJobToCompletion(t *testing.T) {
	m := NewManager(Config{Workers: 1}, new(wire.Registry))
	defer m.Close()
	j, err := m.Submit(managerSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateDone)
	if st.Done != st.Total || st.Total == 0 {
		t.Fatalf("done %d of %d relations", st.Done, st.Total)
	}
	res, ok := j.Result()
	if !ok || res == nil {
		t.Fatal("no result for done job")
	}
	if st.Facts != len(res.Facts) {
		t.Fatalf("status facts %d, result has %d", st.Facts, len(res.Facts))
	}
}

// TestManagerWorkerPoolCap hammers the pool with more jobs than workers and
// requires peak concurrency to stay at the cap.
func TestManagerWorkerPoolCap(t *testing.T) {
	var inFlight, peak int64
	release := make(chan struct{})
	m := NewManager(Config{Workers: 3, Discover: stubDiscover(&inFlight, &peak, release)}, new(wire.Registry))
	defer m.Close()

	spec := managerSpec(t)
	jobs := make([]*Job, 12)
	for i := range jobs {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	// Wait until the pool is saturated, then let everything finish.
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt64(&inFlight) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}
	if got := atomic.LoadInt64(&peak); got != 3 {
		t.Fatalf("peak concurrency %d, want exactly the worker cap 3", got)
	}
}

// TestManagerConcurrentLifecycle drives submit/status/cancel/list from many
// goroutines at once; the race detector is the real assertion.
func TestManagerConcurrentLifecycle(t *testing.T) {
	var inFlight, peak int64
	var reg wire.Registry
	m := NewManager(Config{Workers: 4, Discover: stubDiscover(&inFlight, &peak, nil)}, &reg)
	defer m.Close()
	spec := managerSpec(t)

	var wg sync.WaitGroup
	ids := make(chan string, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				j, err := m.Submit(spec)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				ids <- j.ID()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				select {
				case id := <-ids:
					m.Cancel(id)
					if j, ok := m.Get(id); ok {
						_ = j.Status()
					}
				default:
				}
				m.List()
				_, _ = reg.WriteTo(io.Discard)
			}
		}()
	}
	wg.Wait()

	// Every job must reach a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var b strings.Builder
		_, _ = reg.WriteTo(&b)
		if strings.Contains(b.String(), "kgserve_jobs{state=\"queued\"} 0\n") &&
			strings.Contains(b.String(), "kgserve_jobs{state=\"running\"} 0\n") {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs stuck in non-terminal states")
}

// TestManagerCancelMidRelationLeavesResumableJournal cancels a running
// journaled job between relations and then resumes the journal it left.
func TestManagerCancelMidRelationLeavesResumableJournal(t *testing.T) {
	ds, mdl, fp := testModel(t)
	dir := t.TempDir()
	proceed := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{Workers: 1, Dir: dir}, new(wire.Registry))
	defer m.Close()

	spec := managerSpec(t)
	spec.OnProgress = nil
	// Real discovery, but stall after the second relation journals so the
	// cancel lands mid-run deterministically.
	m.discover = func(ctx context.Context, mo kge.Model, g *kg.Graph, s core.Strategy, opts core.Options) (*core.Result, error) {
		inner := opts.OnRelationDone
		swept := 0
		opts.OnRelationDone = func(d core.RelationDone) {
			inner(d)
			if swept++; swept == 2 {
				once.Do(func() { close(proceed) })
				<-ctx.Done() // hold the sweep here until cancelled
			}
		}
		return core.DiscoverFacts(ctx, mo, g, s, opts)
	}

	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-proceed
	if ok, err := m.Cancel(j.ID()); err != nil || !ok {
		t.Fatalf("Cancel: ok=%v err=%v", ok, err)
	}
	st := waitState(t, j, StateCancelled)
	if st.Error == "" {
		t.Error("cancelled job has no error string")
	}

	// The journal the cancelled job left must resume into the exact
	// uninterrupted result.
	uninterrupted, err := core.DiscoverFacts(context.Background(), mdl, ds.Train, core.NewEntityFrequency(), spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := Run(context.Background(), Spec{
		Model: mdl, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: spec.Options,
		Fingerprint: fp, Journal: filepath.Join(dir, j.ID()+".wal"), Resume: true,
	})
	if err != nil {
		t.Fatalf("resume of cancelled job: %v", err)
	}
	if info.Resumed < 2 {
		t.Fatalf("resumed only %d relations", info.Resumed)
	}
	if !factsEqual(uninterrupted.Facts, res.Facts) {
		t.Fatal("resume of cancelled job diverged from uninterrupted run")
	}
}

// TestManagerRetention exercises both eviction paths: the completed-count
// cap and the TTL sweep.
func TestManagerRetention(t *testing.T) {
	var inFlight, peak int64
	now := time.Unix(1_700_000_000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	m := NewManager(Config{
		Workers: 1, MaxCompleted: 3, TTL: time.Hour, Now: clock,
		Discover: stubDiscover(&inFlight, &peak, nil),
	}, new(wire.Registry))
	defer m.Close()
	spec := managerSpec(t)

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		waitState(t, j, StateDone)
	}
	// Trigger a sweep: only MaxCompleted finished jobs may survive.
	if got := len(m.List()); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	if _, ok := m.Get(jobs[0].ID()); ok {
		t.Error("oldest job not evicted by count cap")
	}
	if _, ok := m.Get(jobs[5].ID()); !ok {
		t.Error("newest job evicted")
	}

	// Advance past the TTL: everything finished must go.
	nowMu.Lock()
	now = now.Add(2 * time.Hour)
	nowMu.Unlock()
	if got := len(m.List()); got != 0 {
		t.Fatalf("TTL sweep left %d jobs", got)
	}
	// A job's counter moves before its state does, so waitState saw it.
	if got := m.evicted.Value(); got != 6 {
		t.Fatalf("evicted counter %d, want 6", got)
	}
	if m.submitted.Value() != 6 || m.completed.Value() != 6 {
		t.Fatalf("submitted %d, completed %d", m.submitted.Value(), m.completed.Value())
	}
}

func TestManagerQueueFull(t *testing.T) {
	var inFlight, peak int64
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, Discover: stubDiscover(&inFlight, &peak, release)}, new(wire.Registry))
	defer m.Close()
	spec := managerSpec(t)

	var submitted int
	var lastErr error
	for i := 0; i < queueDepth+10; i++ {
		if _, err := m.Submit(spec); err != nil {
			lastErr = err
			break
		}
		submitted++
	}
	close(release)
	if lastErr != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", lastErr)
	}
	// queueDepth slots plus up to 1 job already claimed by the worker.
	if submitted < queueDepth || submitted > queueDepth+1 {
		t.Fatalf("submitted %d before queue full", submitted)
	}
}

func TestManagerCloseCancelsRunning(t *testing.T) {
	var inFlight, peak int64
	release := make(chan struct{}) // never closed: only ctx can end the job
	m := NewManager(Config{Workers: 1, Discover: stubDiscover(&inFlight, &peak, release)}, new(wire.Registry))
	j, err := m.Submit(managerSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the running job")
	}
	if st := j.Status(); !st.State.Finished() {
		t.Fatalf("job state after Close: %s", st.State)
	}
	if _, err := m.Submit(managerSpec(t)); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

func TestManagerCancelUnknown(t *testing.T) {
	m := NewManager(Config{Workers: 1}, new(wire.Registry))
	defer m.Close()
	if _, err := m.Cancel("job-999999"); err == nil {
		t.Fatal("cancel of unknown job did not error")
	}
}

func TestManagerIDsAreUnique(t *testing.T) {
	var inFlight, peak int64
	m := NewManager(Config{Workers: 2, Discover: stubDiscover(&inFlight, &peak, nil)}, new(wire.Registry))
	defer m.Close()
	spec := managerSpec(t)
	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if seen[j.ID()] {
			t.Fatalf("duplicate id %s", j.ID())
		}
		seen[j.ID()] = true
	}
	if len(seen) != 20 {
		t.Fatal(fmt.Sprint("expected 20 unique ids, got ", len(seen)))
	}
}
