package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kge"
)

// fuzzEndpoints are every coordinator endpoint that decodes a request body.
var fuzzEndpoints = []string{
	"/register", "/lease", "/heartbeat", "/complete", "/fail", "/sweep",
}

// FuzzFleetDecode throws arbitrary bytes at every wire-decoding coordinator
// endpoint: malformed JSON, truncated bodies, type confusion, and absurd
// values must never panic, and every response — success or error — must be
// well-formed JSON with a sane status code. (/sweep validation rejects
// fuzzed artifact paths long before anything blocks on a fleet.)
func FuzzFleetDecode(f *testing.F) {
	f.Add(0, []byte(`{"worker":"w1"}`))
	f.Add(1, []byte(`{"worker":"w1"}`))
	f.Add(2, []byte(`{"worker":"w1","sweep_id":"abc","unit_id":0}`))
	f.Add(3, []byte(`{"worker":"w1","sweep_id":"abc","unit_id":0,"records":[{"relation":2,"facts":[{"s":1,"r":2,"o":3,"rank":4}]}]}`))
	f.Add(3, []byte(`{"worker":"w1","sweep_id":"abc","unit_id":0,"records":[{"relation":`)) // truncated mid-record
	f.Add(4, []byte(`{"worker":"w1","sweep_id":"abc","unit_id":9,"error":"x","permanent":true}`))
	f.Add(5, []byte(`{"data":"/nonexistent","model":"/nonexistent","strategy":"graph_degree"}`))
	f.Add(5, []byte(`{"data":"","model":"","strategy":""}`))
	f.Add(5, []byte(`{"data":"d","model":"m","strategy":"s","unit_relations":-5}`))
	f.Add(2, []byte(`null`))
	f.Add(0, []byte(``))
	f.Add(1, []byte(`[1,2,3]`))
	f.Add(3, []byte(`{"records":"not-an-array"}`))
	f.Add(5, []byte(`{"data":"d","model":"m","strategy":"s"} {"options":{"top_n":-1}}`))
	f.Add(0, []byte(`{"worker":"w1"}garbage`))

	c := New(Config{})
	h := c.Handler()
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		path := fuzzEndpoints[((which%len(fuzzEndpoints))+len(fuzzEndpoints))%len(fuzzEndpoints)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusInternalServerError:
		default:
			t.Fatalf("POST %s %q: unexpected status %d", path, body, rec.Code)
		}
		var any interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &any); err != nil {
			t.Fatalf("POST %s %q: response %q is not JSON: %v", path, body, rec.Body.String(), err)
		}
	})
}

// TestOversizedBodyRejected pins the body-limit error path the fuzzer cannot
// cheaply reach: a control message over 1MiB gets 413, as JSON.
func TestOversizedBodyRejected(t *testing.T) {
	c := New(Config{})
	// A single huge JSON string: syntactically valid, so the decoder keeps
	// reading until MaxBytesReader cuts it off (garbage bytes would 400 on
	// the first byte without ever reaching the limit).
	big := append([]byte(`{"worker":"`), bytes.Repeat([]byte("a"), controlBodyLimit+1)...)
	big = append(big, `"}`...)
	req := httptest.NewRequest("POST", "/lease", bytes.NewReader(big))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("413 body %q is not a JSON error: %v", rec.Body.String(), err)
	}
}

// TestUnknownFieldsRefused: a sweep option the fleet does not know — here
// the filtered protocol, which SweepOptions does not carry — is a 400 naming
// it, before the coordinator opens anything; run without it, the sweep would
// silently rank raw. Worker messages are held to their types the same way.
func TestUnknownFieldsRefused(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tt := range []struct{ path, body, field string }{
		{"/sweep", `{"data":"d","model":"m","strategy":"s","options":{"top_n":20,"rank_filtered":true}}`, "rank_filtered"},
		{"/sweep", `{"data":"d","model":"m","strategy":"s","prune":"exact"}`, "prune"},
		{"/register", `{"worker":"w1","fault":"hang"}`, "fault"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tt.path, strings.NewReader(tt.body)))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, `"`+tt.field+`"`) {
			t.Errorf("%s %s: %d %q, want 400 naming %q", tt.path, tt.body, rec.Code, rec.Body.String(), tt.field)
		}
	}
}

// TestTrailingValueRefused: a body is one JSON value; a second one after it,
// which could override the first, is a 400 before the coordinator opens
// anything.
func TestTrailingValueRefused(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tt := range []struct{ path, body string }{
		{"/sweep", `{"data":"d","model":"m","strategy":"s","options":{"top_n":20}} {"options":{"top_n":-1}}`},
		{"/register", `{"worker":"w1"}garbage`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tt.path, strings.NewReader(tt.body)))
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, "after the first JSON value") {
			t.Errorf("%s %s: %d %q, want 400", tt.path, tt.body, rec.Code, rec.Body.String())
		}
	}
}

// TestSweepRequestCandidateCeiling: a sweep may ask for at most
// core.MaxCandidatesCeiling candidates per relation, and for neither a
// negative top_n nor a negative max_candidates, as /discover and /jobs
// refuse them. /sweep refuses each with a 400 before it opens anything.
func TestSweepRequestCandidateCeiling(t *testing.T) {
	req := SweepRequest{Data: "d", Model: "m", Strategy: "s", Options: SweepOptions{MaxCandidates: core.MaxCandidatesCeiling}}
	if err := req.Validate(); err != nil {
		t.Fatalf("max_candidates at the ceiling refused: %v", err)
	}
	for _, opts := range []SweepOptions{{MaxCandidates: core.MaxCandidatesCeiling + 1}, {TopN: -1}, {MaxCandidates: -1}} {
		req.Options = opts
		if err := req.Validate(); err == nil {
			t.Fatalf("%+v accepted", opts)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%+v: /sweep status %d, want 400", opts, rec.Code)
		}
	}
}

// TestWorkerRejectsFingerprintMismatch pins the worker-side integrity gate:
// a unit whose pinned fingerprint does not match the checkpoint the worker
// opens is reported as a permanent failure, never swept.
func TestWorkerRejectsFingerprintMismatch(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	w := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w"})
	err := w.ensureArtifacts(&Unit{
		Data:        dataDir,
		Model:       modelPath,
		Fingerprint: "deadbeef",
		Options:     SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7},
	})
	if err == nil {
		t.Fatal("worker accepted a checkpoint with a mismatched fingerprint")
	}
	w.closeArtifacts()
}

// TestGobCheckpointRefused: a sweep over a gob checkpoint is refused by the
// coordinator, and a unit naming one by the worker, each with an error that
// names kgconvert.
func TestGobCheckpointRefused(t *testing.T) {
	dataDir, _ := tinyArtifacts(t)
	const gob = "../kge/testdata/distmult.kge"
	if _, err := New(Config{}).addSweep(testRequest(dataDir, gob)); err == nil || !strings.Contains(err.Error(), "kgconvert") {
		t.Errorf("coordinator: got %v, want an error naming kgconvert", err)
	}
	w := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w"})
	defer w.closeArtifacts()
	err := w.ensureArtifacts(&Unit{Data: dataDir, Model: gob, Fingerprint: "decd60db", Options: SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7}})
	if err == nil || !strings.Contains(err.Error(), "kgconvert") {
		t.Errorf("worker: got %v, want an error naming kgconvert", err)
	}
}

// TestWorkerRejectsOptionsHashMismatch: right fingerprint, wrong pinned
// options hash — the sweep identity diverges, the worker refuses.
func TestWorkerRejectsOptionsHashMismatch(t *testing.T) {
	dataDir, modelPath := tinyArtifacts(t)
	m, err := kge.OpenMapped(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	fp := kge.Fingerprint(m)
	m.Close()
	w := NewWorker(WorkerConfig{Coordinator: "http://unused", Name: "w"})
	defer w.closeArtifacts()
	err = w.ensureArtifacts(&Unit{
		Data:        dataDir,
		Model:       modelPath,
		Fingerprint: fp,
		OptionsHash: "not-the-real-hash",
		Options:     SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7},
	})
	if err == nil {
		t.Fatal("worker accepted a unit with a mismatched options hash")
	}
}
