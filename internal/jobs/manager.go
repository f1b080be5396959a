package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config parameterizes a Manager. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// Workers is the number of jobs executed concurrently. Discovery
	// parallelizes internally across GOMAXPROCS ranking workers, so a small
	// pool saturates the machine. Default 2.
	Workers int
	// MaxCompleted bounds how many finished jobs (and their results) are
	// retained; the oldest-finished are evicted beyond it. Default 64.
	MaxCompleted int
	// TTL evicts finished jobs older than this on the retention sweep
	// (run on every Submit and List). Default 1 hour.
	TTL time.Duration
	// Dir, when set, journals every job to <Dir>/<id>.wal so results
	// survive a process restart; empty keeps jobs in memory only.
	Dir string
	// Now substitutes the clock, for retention tests. Default time.Now.
	Now func() time.Time
	// Discover substitutes core.DiscoverFacts, for tests that need to
	// control execution timing or count concurrency. Nil means the real
	// algorithm.
	Discover discoverFunc
}

// queueDepth bounds jobs waiting for a worker; Submit fails with
// ErrQueueFull beyond it.
const queueDepth = 256

// ErrQueueFull reports that Submit found the pending-job queue at capacity.
var ErrQueueFull = errors.New("jobs: job queue is full")

// errManagerClosed reports a Submit after Close.
var errManagerClosed = errors.New("jobs: manager is closed")

// Status is a point-in-time snapshot of one job, safe to serialize.
type Status struct {
	ID       string `json:"id"`
	Label    string `json:"label,omitempty"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Resumed  int    `json:"resumed_relations"`
	Done     int    `json:"done_relations"`
	Total    int    `json:"total_relations"`
	Facts    int    `json:"facts"`
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Job is one submitted discovery run owned by a Manager.
type Job struct {
	id    string
	label string
	spec  Spec

	mu       sync.Mutex
	state    State
	err      error
	resumed  int
	done     int
	total    int
	facts    int
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // non-nil while running
	wantStop bool               // Cancel was requested
	result   *core.Result
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Label: j.label, State: j.state,
		Resumed: j.resumed, Done: j.done, Total: j.total, Facts: j.facts,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the discovery result once the job is done, or false while
// it is not.
func (j *Job) Result() (*core.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// Manager owns a bounded worker pool executing discovery jobs, a registry
// of their statuses and results, and a retention policy bounding how long
// finished jobs (and their result memory) stick around.
type Manager struct {
	cfg      Config
	discover discoverFunc
	baseCtx  context.Context
	baseStop context.CancelFunc
	queue    chan *Job
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job
	order  []*Job // insertion order, for List and eviction

	// Lifecycle counters, each moved under mu or the job's mutex with the
	// change it counts.
	submitted, completed, failed, cancelled, evicted *wire.Counter
}

// NewManager starts cfg.Workers workers and returns the manager, its
// metrics declared in reg: kgserve serves them beside its own. Close must
// be called to stop the workers.
func NewManager(cfg Config, reg *wire.Registry) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxCompleted <= 0 {
		cfg.MaxCompleted = 64
	}
	if cfg.TTL <= 0 {
		cfg.TTL = time.Hour
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		discover: core.DiscoverFacts,
		baseCtx:  ctx,
		baseStop: stop,
		queue:    make(chan *Job, queueDepth),
		jobs:     make(map[string]*Job),
	}
	if cfg.Discover != nil {
		m.discover = cfg.Discover
	}
	reg.GaugeFunc("kgserve_jobs", "Retained async discovery jobs, by state.", []string{"state"}, func(emit func(any, ...string)) {
		counts := make(map[State]int)
		m.mu.Lock()
		for _, j := range m.order {
			j.mu.Lock()
			counts[j.state]++
			j.mu.Unlock()
		}
		m.mu.Unlock()
		for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
			emit(counts[st], string(st))
		}
	})
	m.submitted = reg.Counter("kgserve_jobs_submitted_total", "Async jobs accepted by POST /jobs.")
	m.completed = reg.Counter("kgserve_jobs_completed_total", "Async jobs that finished successfully.")
	m.failed = reg.Counter("kgserve_jobs_failed_total", "Async jobs that finished with an error.")
	m.cancelled = reg.Counter("kgserve_jobs_cancelled_total", "Async jobs cancelled before completing.")
	m.evicted = reg.Counter("kgserve_jobs_evicted_total", "Finished jobs evicted by the retention policy.")
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit registers a job and queues it for execution. When the manager has
// a journal directory, the job checkpoints to <dir>/<id>.wal (resuming any
// journal a previous incarnation left there).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errManagerClosed
	}
	m.seq++
	id := fmt.Sprintf("job-%06d", m.seq)
	j := &Job{
		id:      id,
		label:   spec.Label,
		spec:    spec,
		state:   StateQueued,
		created: m.cfg.Now(),
	}
	if m.cfg.Dir != "" && j.spec.Journal == "" {
		j.spec.Journal = filepath.Join(m.cfg.Dir, id+".wal")
		j.spec.Resume = true
	}
	// The enqueue happens under m.mu: Close also closes the queue under
	// m.mu, so a send can never race a close. The send never blocks — the
	// channel is buffered to queueDepth and full means ErrQueueFull.
	select {
	case m.queue <- j:
	default:
		m.seq--
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[id] = j
	m.order = append(m.order, j)
	m.submitted.Inc()
	m.sweepLocked()
	m.mu.Unlock()
	return j, nil
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. It reports
// whether the request took effect (false once the job already finished).
func (m *Manager) Cancel(id string) (bool, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("jobs: unknown job %q", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state.Finished():
		return false, nil
	case j.state == StateRunning:
		j.wantStop = true
		j.cancel()
		return true, nil
	default: // queued: the worker observes wantStop and skips execution
		j.wantStop = true
		return true, nil
	}
}

// List returns a status snapshot of every retained job in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	m.sweepLocked()
	jobs := append([]*Job(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	m.baseStop()
	m.wg.Wait()
}

// sweepLocked enforces retention: finished jobs older than TTL are dropped,
// then the oldest-finished beyond MaxCompleted. Running and queued jobs are
// never evicted. Caller holds m.mu; job mutexes are acquired under it (the
// only permitted order — nothing acquires m.mu while holding a job mutex).
func (m *Manager) sweepLocked() {
	now := m.cfg.Now()
	var finished, expired []*Job
	for _, j := range m.order {
		j.mu.Lock()
		if j.state.Finished() {
			if now.Sub(j.finished) > m.cfg.TTL {
				expired = append(expired, j)
			} else {
				finished = append(finished, j)
			}
		}
		j.mu.Unlock()
	}
	for _, j := range expired {
		m.evictLocked(j)
	}
	if over := len(finished) - m.cfg.MaxCompleted; over > 0 {
		sort.Slice(finished, func(i, j int) bool {
			return finished[i].finished.Before(finished[j].finished)
		})
		for _, j := range finished[:over] {
			m.evictLocked(j)
		}
	}
}

func (m *Manager) evictLocked(j *Job) {
	delete(m.jobs, j.id)
	for i, o := range m.order {
		if o == j {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.evicted.Inc()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.execute(j)
	}
}

func (m *Manager) execute(j *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	// Each counter moves before the state it counts, under j.mu: a reader
	// that sees a final state also sees its counter.
	j.mu.Lock()
	if j.wantStop {
		m.cancelled.Inc()
		j.state = StateCancelled
		j.finished = m.cfg.Now()
		j.mu.Unlock()
		if j.spec.OnFinish != nil {
			j.spec.OnFinish(StateCancelled)
		}
		return
	}
	j.state = StateRunning
	j.started = m.cfg.Now()
	j.cancel = cancel
	j.mu.Unlock()

	spec := j.spec
	spec.OnProgress = func(p Progress) {
		j.mu.Lock()
		j.done = p.Done
		j.total = p.Total
		j.facts = p.FactsSum
		j.mu.Unlock()
	}
	res, info, err := run(ctx, spec, m.discover)

	j.mu.Lock()
	j.cancel = nil
	j.finished = m.cfg.Now()
	j.resumed = info.Resumed
	j.total = info.TotalRelations
	var final State
	switch {
	case err == nil:
		final = StateDone
		m.completed.Inc()
		j.result = res
		j.done = info.TotalRelations
		j.facts = len(res.Facts)
	case j.wantStop || errors.Is(err, context.Canceled):
		final = StateCancelled
		m.cancelled.Inc()
		j.err = context.Canceled
	default:
		final = StateFailed
		m.failed.Inc()
		j.err = err
	}
	j.state = final
	j.mu.Unlock()
	if j.spec.OnFinish != nil {
		j.spec.OnFinish(final)
	}
}
