package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// The async discovery API. A full-dataset sweep is the paper's headline
// cost; /discover holds the HTTP request open for all of it, which caps
// practical sweep size at the request deadline. /jobs runs the same sweep on
// the jobs.Manager worker pool instead: submission returns 202 immediately,
// progress is observable per relation, and (when the server is started with
// a journal directory) a crash loses nothing — completed relations are
// re-read from the WAL on resubmission.
//
//	POST   /jobs             → 202 {"id": "job-000001", ...}
//	GET    /jobs             → every retained job's status
//	GET    /jobs/{id}        → one job's status and progress
//	GET    /jobs/{id}/result → the discovered facts once state is "done"
//	DELETE /jobs/{id}        → cancel a queued or running job

// jobStatusView is the wire form of jobs.Status: times flattened to RFC3339
// (zero times omitted) plus the HTTP paths for the next actions.
type jobStatusView struct {
	ID       string     `json:"id"`
	Label    string     `json:"label,omitempty"`
	State    jobs.State `json:"state"`
	Error    string     `json:"error,omitempty"`
	Resumed  int        `json:"resumed_relations"`
	Done     int        `json:"done_relations"`
	Total    int        `json:"total_relations"`
	Facts    int        `json:"facts"`
	Created  string     `json:"created,omitempty"`
	Started  string     `json:"started,omitempty"`
	Finished string     `json:"finished,omitempty"`
	URL      string     `json:"url"`
	Result   string     `json:"result_url,omitempty"`
}

func jobView(st jobs.Status) jobStatusView {
	v := jobStatusView{
		ID: st.ID, Label: st.Label, State: st.State, Error: st.Error,
		Resumed: st.Resumed, Done: st.Done, Total: st.Total, Facts: st.Facts,
		URL: "/jobs/" + st.ID,
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.Created, v.Started, v.Finished = stamp(st.Created), stamp(st.Started), stamp(st.Finished)
	if st.State == jobs.StateDone {
		v.Result = "/jobs/" + st.ID + "/result"
	}
	return v
}

// jobLimits remembers each submission's requested result limit. Entries are
// pruned opportunistically against the manager's retained set, so eviction
// there bounds this map too.
type jobLimits struct {
	mu sync.Mutex
	m  map[string]int
}

func (l *jobLimits) set(id string, limit int) {
	l.mu.Lock()
	if l.m == nil {
		l.m = make(map[string]int)
	}
	l.m[id] = limit
	l.mu.Unlock()
}

func (l *jobLimits) get(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[id]
}

func (l *jobLimits) prune(retained []jobs.Status) {
	keep := make(map[string]bool, len(retained))
	for _, st := range retained {
		keep[st.ID] = true
	}
	l.mu.Lock()
	for id := range l.m {
		if !keep[id] {
			delete(l.m, id)
		}
	}
	l.mu.Unlock()
}

// handleJobSubmit validates a discover-shaped request and queues it as an
// async job. 202 Accepted with the job's status; the Location header points
// at the status URL.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	call, ok := s.parseDiscover(w, r)
	if !ok {
		return
	}
	// The job holds the call's reference on the model for its whole
	// (asynchronous) lifetime: OnFinish fires at the terminal state —
	// including jobs cancelled while queued — so a model unloaded mid-job
	// stays mapped until the sweep ends.
	sm, req := call.sm, call.req
	job, err := s.jobs.Submit(jobs.Spec{
		Model:       sm.model,
		Graph:       s.ds.Train,
		Strategy:    call.strategy,
		Options:     call.opts,
		Fingerprint: sm.fingerprint,
		Label:       "discover strategy=" + req.Strategy,
		OnFinish:    func(jobs.State) { sm.release() },
	})
	if err == jobs.ErrQueueFull {
		sm.release()
		w.Header().Set("Retry-After", "5")
		wire.WriteError(w, http.StatusTooManyRequests, "job queue is full, retry shortly")
		return
	}
	if err != nil {
		sm.release()
		wire.WriteError(w, http.StatusInternalServerError, "submit failed: %v", err)
		return
	}
	s.limits.set(job.ID(), req.Limit)
	s.limits.prune(s.jobs.List())
	w.Header().Set("Location", "/jobs/"+job.ID())
	wire.WriteJSON(w, http.StatusAccepted, jobView(job.Status()))
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	statuses := s.jobs.List()
	views := make([]jobStatusView, len(statuses))
	for i, st := range statuses {
		views[i] = jobView(st)
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	wire.WriteJSON(w, http.StatusOK, jobView(job.Status()))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res, done := job.Result()
	if !done {
		st := job.Status()
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error": "job has no result in state " + string(st.State),
			"state": st.State,
			"job":   jobView(st),
		})
		return
	}
	limit := s.limits.get(job.ID())
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			wire.WriteError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", q)
			return
		}
		limit = n
	}
	body, err := s.renderResult(res, limit)
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "render failed: %v", err)
		return
	}
	wire.WriteBody(w, http.StatusOK, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.jobs.Cancel(id)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !ok {
		wire.WriteJSON(w, http.StatusConflict, map[string]any{
			"error":     "job already finished",
			"cancelled": false,
		})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"cancelled": true, "id": id})
}

// renderResult renders a discovery result body (shared by the synchronous
// /discover path and /jobs/{id}/result, so the two stay wire-compatible).
func (s *Server) renderResult(res *core.Result, limit int) ([]byte, error) {
	if limit <= 0 || limit > len(res.Facts) {
		limit = len(res.Facts)
	}
	facts := make([]discoveredFact, 0, limit)
	for _, f := range res.Facts[:limit] {
		facts = append(facts, discoveredFact{
			Subject:  s.ds.Train.Entities.Name(int32(f.Triple.S)),
			Relation: s.ds.Train.Relations.Name(int32(f.Triple.R)),
			Object:   s.ds.Train.Entities.Name(int32(f.Triple.O)),
			Rank:     f.Rank,
		})
	}
	return json.Marshal(map[string]any{
		"facts":      facts,
		"total":      len(res.Facts),
		"mrr":        res.MRR(),
		"runtime_ms": res.Stats.Total.Milliseconds(),
	})
}
