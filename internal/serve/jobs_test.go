package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
)

// waitJob polls GET /jobs/{id} until the job reaches want, failing if it
// settles in any other terminal state first.
func waitJob(t testing.TB, h http.Handler, id string, want jobs.State) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, body := doReq(t, h, "GET", "/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: code %d: %v", id, rec.Code, body)
		}
		state, _ := body["state"].(string)
		if state == string(want) {
			return body
		}
		if jobs.State(state).Finished() {
			t.Fatalf("job %s finished as %q (error: %v), want %q", id, state, body["error"], want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q waiting for %q", id, state, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycleMatchesDiscover runs the same sweep synchronously through
// /discover and asynchronously through /jobs and requires identical result
// bodies (up to the wall-clock runtime_ms field): the async path is a
// transport change, not an algorithm change.
func TestJobLifecycleMatchesDiscover(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()

	rec, submitted := doReq(t, h, "POST", "/jobs", discoverBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: code %d, want 202: %v", rec.Code, submitted)
	}
	id, _ := submitted["id"].(string)
	if id == "" {
		t.Fatalf("POST /jobs: no id in %v", submitted)
	}
	if loc := rec.Header().Get("Location"); loc != "/jobs/"+id {
		t.Fatalf("Location = %q, want %q", loc, "/jobs/"+id)
	}

	status := waitJob(t, h, id, jobs.StateDone)
	if status["result_url"] != "/jobs/"+id+"/result" {
		t.Fatalf("done status missing result_url: %v", status)
	}
	total := int(status["total_relations"].(float64))
	done := int(status["done_relations"].(float64))
	if total == 0 || done != total {
		t.Fatalf("done job reports %d/%d relations", done, total)
	}

	asyncRec, asyncBody := doReq(t, h, "GET", "/jobs/"+id+"/result", nil)
	if asyncRec.Code != http.StatusOK {
		t.Fatalf("GET result: code %d: %v", asyncRec.Code, asyncBody)
	}
	syncRec, syncBody := doReq(t, h, "POST", "/discover", discoverBody)
	if syncRec.Code != http.StatusOK {
		t.Fatalf("POST /discover: code %d: %v", syncRec.Code, syncBody)
	}
	// runtime_ms is wall clock; everything else must match exactly.
	delete(asyncBody, "runtime_ms")
	delete(syncBody, "runtime_ms")
	a, _ := json.Marshal(asyncBody)
	b, _ := json.Marshal(syncBody)
	if string(a) != string(b) {
		t.Fatalf("async result differs from synchronous /discover:\n%s\nvs\n%s", a, b)
	}

	// ?limit= overrides the submission's limit on the result endpoint.
	rec, body := doReq(t, h, "GET", "/jobs/"+id+"/result?limit=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET result?limit=1: code %d", rec.Code)
	}
	if facts, _ := body["facts"].([]any); len(facts) != 1 {
		t.Fatalf("limit=1 returned %d facts", len(facts))
	}
	rec, _ = doReq(t, h, "GET", "/jobs/"+id+"/result?limit=bogus", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus limit: code %d, want 400", rec.Code)
	}

	// The job shows up in the listing.
	rec, listing := doReq(t, h, "GET", "/jobs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs: code %d", rec.Code)
	}
	if js, _ := listing["jobs"].([]any); len(js) != 1 {
		t.Fatalf("GET /jobs listed %d jobs, want 1", len(js))
	}
}

// TestJobCancel walks the cancellation state machine over HTTP: a running
// job cancels with 200, a finished one refuses with 409, an unknown id is
// 404, and the result endpoint reports 409 for the cancelled job.
func TestJobCancel(t *testing.T) {
	srv := newTestServer(t, nil)
	entered := make(chan struct{})
	srv.discover = func(ctx context.Context, _ kge.Model, _ *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	h := srv.Handler()

	rec, submitted := doReq(t, h, "POST", "/jobs", discoverBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: code %d", rec.Code)
	}
	id := submitted["id"].(string)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started executing")
	}

	rec, body := doReq(t, h, "DELETE", "/jobs/"+id, nil)
	if rec.Code != http.StatusOK || body["cancelled"] != true {
		t.Fatalf("DELETE running job: code %d body %v", rec.Code, body)
	}
	waitJob(t, h, id, jobs.StateCancelled)

	rec, body = doReq(t, h, "GET", "/jobs/"+id+"/result", nil)
	if rec.Code != http.StatusConflict || body["state"] != string(jobs.StateCancelled) {
		t.Fatalf("result of cancelled job: code %d body %v, want 409/cancelled", rec.Code, body)
	}
	rec, body = doReq(t, h, "DELETE", "/jobs/"+id, nil)
	if rec.Code != http.StatusConflict || body["cancelled"] != false {
		t.Fatalf("DELETE finished job: code %d body %v, want 409", rec.Code, body)
	}
	rec, _ = doReq(t, h, "DELETE", "/jobs/no-such-job", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: code %d, want 404", rec.Code)
	}
	rec, _ = doReq(t, h, "GET", "/jobs/no-such-job", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown job: code %d, want 404", rec.Code)
	}
	rec, _ = doReq(t, h, "GET", "/jobs/no-such-job/result", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown result: code %d, want 404", rec.Code)
	}
}

// TestJobSubmitValidation mirrors the synchronous /discover validation on
// the async path.
func TestJobSubmitValidation(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad JSON", `{`, http.StatusBadRequest},
		{"negative top_n", `{"top_n":-1}`, http.StatusBadRequest},
		{"unknown strategy", `{"strategy":"astrology"}`, http.StatusBadRequest},
		{"unknown relation", `{"relations":["no_such_relation"]}`, http.StatusNotFound},
		{"repeated relation", `{"relations":["r0","r1","r0"]}`, http.StatusBadRequest},
		{"max_candidates above the ceiling", fmt.Sprintf(`{"max_candidates":%d}`, core.MaxCandidatesCeiling+1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, body := doReq(t, h, "POST", "/jobs", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: code %d, want %d (%v)", tc.name, rec.Code, tc.code, body)
		}
	}
	if _, counters := srv.jobs.Snapshot(); counters.Submitted != 0 {
		t.Fatalf("invalid submissions reached the manager: %+v", counters)
	}
}

// TestJobQueueFull fills the single worker and the whole queue with blocked
// jobs and requires the next submission to bounce with 429 + Retry-After.
func TestJobQueueFull(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.JobWorkers = 1 })
	srv.discover = func(ctx context.Context, _ kge.Model, _ *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	h := srv.Handler()

	// One job occupies the worker — wait until it actually dequeues, so the
	// queue slot it held is free again — then QueueDepth (manager default
	// 256) more fill the queue. Distinct seeds only for readability — jobs
	// never dedupe.
	rec0, first := doReq(t, h, "POST", "/jobs", `{"top_n":5,"seed":0}`)
	if rec0.Code != http.StatusAccepted {
		t.Fatalf("first submission: code %d body %v", rec0.Code, first)
	}
	waitJob(t, h, first["id"].(string), jobs.StateRunning)
	for i := 1; i < 1+256; i++ {
		rec, body := doReq(t, h, "POST", "/jobs", fmt.Sprintf(`{"top_n":5,"seed":%d}`, i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submission %d: code %d body %v", i, rec.Code, body)
		}
	}
	rec, _ := doReq(t, h, "POST", "/jobs", `{"top_n":5}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: code %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestJobMetrics completes one job and requires the /metrics scrape to carry
// the job-state gauge and lifecycle counters.
func TestJobMetrics(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	rec, submitted := doReq(t, h, "POST", "/jobs", discoverBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: code %d", rec.Code)
	}
	waitJob(t, h, submitted["id"].(string), jobs.StateDone)

	scrape := httptest.NewRecorder()
	h.ServeHTTP(scrape, httptest.NewRequest("GET", "/metrics", nil))
	if scrape.Code != http.StatusOK {
		t.Fatalf("GET /metrics: code %d", scrape.Code)
	}
	text := scrape.Body.String()
	for _, want := range []string{
		`kgserve_jobs{state="done"} 1`,
		`kgserve_jobs{state="running"} 0`,
		"kgserve_jobs_submitted_total 1",
		"kgserve_jobs_completed_total 1",
		"kgserve_jobs_failed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}
