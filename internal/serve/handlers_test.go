package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
)

func TestHealthAndStats(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	rec, body := doReq(t, h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}
	rec, body = doReq(t, h, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if body["entities"].(float64) != 80 || body["relations"].(float64) != 6 {
		t.Errorf("stats payload: %v", body)
	}
	if body["calibrated"] != true {
		t.Error("expected a fitted calibrator with a validation split present")
	}
	if body["fingerprint"] != srv.Fingerprint() {
		t.Errorf("stats fingerprint %v, want %s", body["fingerprint"], srv.Fingerprint())
	}
}

func TestScoreEndpoint(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	rec, body := doReq(t, h, "POST", "/score", tripleRequest{Subject: "e1", Relation: "r0", Object: "e2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("score: %d %v", rec.Code, body)
	}
	if _, ok := body["score"]; !ok {
		t.Error("missing score")
	}
	if p, ok := body["probability"].(float64); !ok || p < 0 || p > 1 {
		t.Errorf("probability = %v", body["probability"])
	}
}

func TestRankEndpoint(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	rec, body := doReq(t, h, "POST", "/rank", tripleRequest{Subject: "e1", Relation: "r0", Object: "e2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("rank: %d %v", rec.Code, body)
	}
	rank := body["rank"].(float64)
	if rank < 1 || rank > 80 {
		t.Errorf("rank %v out of [1, 80]", rank)
	}
}

// TestRankEndpointMatchesRankObject holds /rank to the per-triple reference
// on the server's filtered ranker: Ranker.RankObject probes the filter graph
// once per entity, the handler answers from one grouped sweep plus a
// correction over the (s, r) adjacency, and the two must agree for a known
// triple, an unknown one, and a triple whose score ties another entity's
// exactly (the mean tie policy's ⌊equal/2⌋ term).
func TestRankEndpointMatchesRankObject(t *testing.T) {
	ds, _ := testModel(t)
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two entities with one embedding row score identically as objects.
	const tiedA, tiedB = kg.EntityID(3), kg.EntityID(4)
	ent := m.Params().Get("entity").M
	copy(ent.Row(int(tiedB)), ent.Row(int(tiedA)))
	srv, err := New(ds, m, Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	sm, err := srv.acquireModel("")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.release()

	known := ds.Train.Triples()[0]
	unknown := known
	for o := 0; o < ds.Train.Entities.Len(); o++ {
		unknown.O = kg.EntityID(o)
		if !srv.all.Contains(unknown) && unknown.O != tiedA && unknown.O != tiedB {
			break
		}
	}
	tied := kg.Triple{S: known.S, R: known.R, O: tiedA}
	if m.Score(tied) != m.Score(kg.Triple{S: known.S, R: known.R, O: tiedB}) {
		t.Fatal("fixture: the two shared-row objects do not tie")
	}
	if len(srv.all.ObjectsOf(known.S, known.R)) == 0 {
		t.Fatal("fixture: the probed (s, r) pair has no filtered objects")
	}

	h := srv.Handler()
	for name, tr := range map[string]kg.Triple{"known": known, "unknown": unknown, "tied": tied} {
		rec, body := doReq(t, h, "POST", "/rank", tripleRequest{
			Subject:  ds.Train.Entities.Name(int32(tr.S)),
			Relation: ds.Train.Relations.Name(int32(tr.R)),
			Object:   ds.Train.Entities.Name(int32(tr.O)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: rank: %d %v", name, rec.Code, body)
		}
		if got, want := int(body["rank"].(float64)), sm.ranker.RankObject(tr); got != want {
			t.Errorf("%s %v: /rank = %d, RankObject = %d", name, tr, got, want)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	rec, body := doReq(t, h, "POST", "/query", queryRequest{Subject: "e1", Relation: "r0", K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %v", rec.Code, body)
	}
	answers := body["answers"].([]any)
	if len(answers) != 5 {
		t.Fatalf("answers = %d, want 5", len(answers))
	}
	// Scores must be non-increasing.
	prev := answers[0].(map[string]any)["score"].(float64)
	for _, a := range answers[1:] {
		cur := a.(map[string]any)["score"].(float64)
		if cur > prev {
			t.Fatal("answers not sorted by score")
		}
		prev = cur
	}
	// Zero k falls back to the default of 10.
	rec, body = doReq(t, h, "POST", "/query", queryRequest{Subject: "e1", Relation: "r0"})
	if rec.Code != http.StatusOK || len(body["answers"].([]any)) != 10 {
		t.Errorf("default k: %d, %d answers, want 200 with 10", rec.Code, len(body["answers"].([]any)))
	}
}

func TestDiscoverEndpoint(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	rec, body := doReq(t, h, "POST", "/discover", discoverRequest{
		Strategy: "graph_degree", TopN: 20, MaxCandidates: 30, Limit: 5, Seed: 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("discover: %d %v", rec.Code, body)
	}
	facts := body["facts"].([]any)
	if len(facts) == 0 || len(facts) > 5 {
		t.Fatalf("facts = %d, want 1..5", len(facts))
	}
	first := facts[0].(map[string]any)
	for _, field := range []string{"subject", "relation", "object", "rank"} {
		if _, ok := first[field]; !ok {
			t.Errorf("fact missing %s: %v", field, first)
		}
	}
	if body["total"].(float64) < float64(len(facts)) {
		t.Error("total < returned facts")
	}
	// Relation-restricted discovery with a named relation.
	rec, body = doReq(t, h, "POST", "/discover", discoverRequest{
		Strategy: "uniform_random", TopN: 20, MaxCandidates: 20,
		Relations: []string{"r1"}, Limit: 3, Seed: 4,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("restricted discover: %d %v", rec.Code, body)
	}
	for _, f := range body["facts"].([]any) {
		if rel := f.(map[string]any)["relation"].(string); rel != "r1" {
			t.Errorf("fact for relation %q, want r1", rel)
		}
	}
}

// TestUnknownFieldsRefused: a body naming a field its request does not have
// is a 400 naming the field, on every decoding endpoint; a /discover asking
// for the filtered protocol must not be answered with raw ranks.
func TestUnknownFieldsRefused(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	for _, tt := range []struct{ path, body, field string }{
		{"/discover", `{"strategy":"graph_degree","top_n":20,"max_candidates":30,"rank_filtered":true}`, "rank_filtered"},
		{"/jobs", `{"strategy":"graph_degree","cache_weights":true}`, "cache_weights"},
		{"/score", `{"subject":"e1","relation":"r0","object":"e2","protocol":"filtered"}`, "protocol"},
		{"/rank", `{"subject":"e1","relation":"r0","object":"e2","filtered":true}`, "filtered"},
		{"/query", `{"subject":"e1","relation":"r0","top":3}`, "top"},
		{"/mutate", `{"seq":1,"ops":[{"op":"add","s":"e1","r":"r0","o":"e2","weight":1}]}`, "weight"},
		{"/models", `{"path":"x.kgf","format":"gob"}`, "format"},
	} {
		rec, body := doReq(t, h, "POST", tt.path, tt.body)
		msg, _ := body["error"].(string)
		if rec.Code != http.StatusBadRequest || !strings.Contains(msg, `"`+tt.field+`"`) {
			t.Errorf("%s %s: %d %q, want 400 naming %q", tt.path, tt.body, rec.Code, msg, tt.field)
		}
	}
}

// TestTrailingValueRefused: a body is one JSON value. A second value after
// it, which could override the first, or any other trailing bytes are a
// 400, not silently dropped.
func TestTrailingValueRefused(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	for _, tt := range []struct{ path, body string }{
		{"/discover", `{"strategy":"graph_degree","top_n":20,"max_candidates":30} {"top_n":-1}`},
		{"/query", `{"subject":"e1","relation":"r0","k":2}garbage`},
		{"/jobs", `{"strategy":"graph_degree"}{}`},
		{"/mutate", `{"seq":1,"ops":[]}]`},
	} {
		rec, body := doReq(t, h, "POST", tt.path, tt.body)
		msg, _ := body["error"].(string)
		if rec.Code != http.StatusBadRequest || !strings.Contains(msg, "after the first JSON value") {
			t.Errorf("%s %s: %d %q, want 400", tt.path, tt.body, rec.Code, msg)
		}
	}
	// Whitespace after the value is not data.
	if rec, _ := doReq(t, h, "POST", "/query", "{\"subject\":\"e1\",\"relation\":\"r0\",\"k\":2}\n\t \n"); rec.Code != http.StatusOK {
		t.Errorf("/query with trailing whitespace: %d, want 200", rec.Code)
	}
}

// TestHandlerErrorPaths is the table-driven error matrix over every
// endpoint: each row must produce the expected status and, for non-2xx,
// a well-formed {"error": ...} JSON body.
func TestHandlerErrorPaths(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	tests := []struct {
		name string
		path string
		body string
		want int
	}{
		{"score malformed JSON", "/score", "{", http.StatusBadRequest},
		{"score empty body", "/score", "", http.StatusBadRequest},
		{"score unknown subject", "/score", `{"subject":"ghost","relation":"r0","object":"e2"}`, http.StatusNotFound},
		{"score unknown object", "/score", `{"subject":"e1","relation":"r0","object":"ghost"}`, http.StatusNotFound},
		{"rank malformed JSON", "/rank", `{"subject":`, http.StatusBadRequest},
		{"rank unknown relation", "/rank", `{"subject":"e1","relation":"ghost","object":"e2"}`, http.StatusNotFound},
		{"query malformed JSON", "/query", "not json", http.StatusBadRequest},
		{"query unknown subject", "/query", `{"subject":"ghost","relation":"r0"}`, http.StatusNotFound},
		{"query unknown relation", "/query", `{"subject":"e1","relation":"ghost"}`, http.StatusNotFound},
		{"query negative k", "/query", `{"subject":"e1","relation":"r0","k":-1}`, http.StatusBadRequest},
		{"query zero k ok", "/query", `{"subject":"e1","relation":"r0","k":0}`, http.StatusOK},
		{"discover malformed JSON", "/discover", `{"strategy"`, http.StatusBadRequest},
		{"discover unknown strategy", "/discover", `{"strategy":"bogus"}`, http.StatusBadRequest},
		{"discover unknown relation", "/discover", `{"relations":["ghost"]}`, http.StatusNotFound},
		{"discover negative top_n", "/discover", `{"top_n":-5}`, http.StatusBadRequest},
		{"discover negative max_candidates", "/discover", `{"max_candidates":-1}`, http.StatusBadRequest},
		{"discover negative limit", "/discover", `{"limit":-2}`, http.StatusBadRequest},
		{"discover zero params ok", "/discover", `{"strategy":"graph_degree","top_n":20,"max_candidates":30,"seed":9}`, http.StatusOK},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec, body := doReq(t, h, "POST", tt.path, tt.body)
			if rec.Code != tt.want {
				t.Fatalf("code %d, want %d (body %v)", rec.Code, tt.want, body)
			}
			if rec.Code >= 300 {
				msg, ok := body["error"].(string)
				if !ok || msg == "" {
					t.Fatalf("non-2xx without error JSON: %q", rec.Body.String())
				}
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
		})
	}
}

// TestOversizedBody trips the body-limit middleware on every POST endpoint.
func TestOversizedBody(t *testing.T) {
	h := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 64 }).Handler()
	big := `{"subject":"` + strings.Repeat("x", 200) + `"}`
	for _, path := range []string{"/score", "/rank", "/query", "/discover"} {
		rec, body := doReq(t, h, "POST", path, big)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code %d, want 413", path, rec.Code)
		}
		if msg, ok := body["error"].(string); !ok || msg == "" {
			t.Errorf("%s: 413 without error JSON: %q", path, rec.Body.String())
		}
	}
}

// TestDiscoverDeadline covers the request-deadline path with a discover
// stub that honors cancellation the way core.DiscoverFacts does: the
// response must be a 503 JSON error with no partial facts.
func TestDiscoverDeadline(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = 20 * time.Millisecond })
	srv.discover = func(ctx context.Context, _ kge.Model, _ *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	rec, body := doReq(t, srv.Handler(), "POST", "/discover", discoverBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503 (body %v)", rec.Code, body)
	}
	if msg, ok := body["error"].(string); !ok || msg == "" {
		t.Fatalf("503 without error JSON: %q", rec.Body.String())
	}
	if _, ok := body["facts"]; ok {
		t.Fatal("timed-out discovery leaked partial facts into the response")
	}
}

// TestDiscoverDeadlineRealSweep is the regression companion for the rankAll
// cancellation fix from PR 1: the real core.DiscoverFacts under an
// already-expired deadline must propagate the context error — never return
// partial (bogus rank-0) facts — and the handler must render it as a 503.
func TestDiscoverDeadlineRealSweep(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	rec, body := doReq(t, srv.Handler(), "POST", "/discover", discoverBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503 (body %v)", rec.Code, body)
	}
	if _, ok := body["facts"]; ok {
		t.Fatal("timed-out discovery leaked partial facts into the response")
	}
}

// TestDiscoverKeyCanonical: requests that differ only in spelled-out
// defaults or in relation order are one request — the second is a cache hit
// and no second sweep runs — and a repeated relation is refused, where it
// would sweep the relation twice and double its facts.
func TestDiscoverKeyCanonical(t *testing.T) {
	srv := newTestServer(t, nil)
	var sweeps atomic.Int32
	srv.discover = func(context.Context, kge.Model, *kg.Graph, core.Strategy, core.Options) (*core.Result, error) {
		sweeps.Add(1)
		return stubResult(), nil
	}
	h := srv.Handler()
	for _, pair := range [][2]string{
		{`{}`, `{"top_n":500,"max_candidates":500}`},
		{`{"relations":["r0","r1"]}`, `{"relations":["r1","r0"]}`},
	} {
		before := sweeps.Load()
		for i, body := range pair {
			rec, resp := doReq(t, h, "POST", "/discover", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %v", body, rec.Code, resp)
			}
			if want := []string{"miss", "hit"}[i]; rec.Header().Get("X-Cache") != want {
				t.Errorf("%s: X-Cache %q, want %q", body, rec.Header().Get("X-Cache"), want)
			}
		}
		if n := sweeps.Load() - before; n != 1 {
			t.Errorf("%s and %s ran %d sweeps, want 1", pair[0], pair[1], n)
		}
	}
	if rec, resp := doReq(t, h, "POST", "/discover", `{"relations":["r0","r0"]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("repeated relation: %d %v, want 400", rec.Code, resp)
	}
}

// TestQueryCache exercises the /query cache path: miss then hit with
// byte-identical bodies.
func TestQueryCache(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	rec1, _ := doReq(t, h, "POST", "/query", queryRequest{Subject: "e3", Relation: "r2", K: 4})
	rec2, _ := doReq(t, h, "POST", "/query", queryRequest{Subject: "e3", Relation: "r2", K: 4})
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("codes %d, %d", rec1.Code, rec2.Code)
	}
	if rec1.Header().Get("X-Cache") != "miss" || rec2.Header().Get("X-Cache") != "hit" {
		t.Errorf("X-Cache %q, %q; want miss, hit", rec1.Header().Get("X-Cache"), rec2.Header().Get("X-Cache"))
	}
	if rec1.Body.String() != rec2.Body.String() {
		t.Error("cache hit body differs from original")
	}
}

// TestCacheEviction bounds the LRU at one entry and confirms the eviction
// counter moves and evicted keys recompute.
func TestCacheEviction(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.CacheSize = 1 })
	h := srv.Handler()
	doReq(t, h, "POST", "/query", queryRequest{Subject: "e1", Relation: "r0", K: 3})
	doReq(t, h, "POST", "/query", queryRequest{Subject: "e2", Relation: "r1", K: 3}) // evicts the first
	if evictions := srv.metrics.cacheEvictions.Value(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	rec, _ := doReq(t, h, "POST", "/query", queryRequest{Subject: "e1", Relation: "r0", K: 3})
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("evicted key served as %q, want miss", got)
	}
	if srv.cache.Len() != 1 {
		t.Errorf("cache len %d, want 1", srv.cache.Len())
	}
}

// TestCacheDisabled verifies a negative CacheSize turns caching off without
// breaking the endpoints.
func TestCacheDisabled(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.CacheSize = -1 })
	h := srv.Handler()
	for i := 0; i < 2; i++ {
		rec, _ := doReq(t, h, "POST", "/query", queryRequest{Subject: "e1", Relation: "r0", K: 3})
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
		if got := rec.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("request %d X-Cache %q, want miss with caching disabled", i, got)
		}
	}
}

// TestDiscoverCeilingBoundsAllocation: max_candidates sizes no allocation.
// One /discover at the ceiling may allocate at most a small multiple of what
// a default request allocates on the same graph; one above it is refused.
func TestDiscoverCeilingBoundsAllocation(t *testing.T) {
	h := newTestServer(t, nil).Handler()
	allocated := func(body string) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec, out := doReq(t, h, "POST", "/discover", body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code %d (%v)", body, rec.Code, out)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base := allocated(`{"strategy":"entity_frequency","seed":5}`)
	ceiling := allocated(fmt.Sprintf(`{"strategy":"entity_frequency","seed":5,"max_candidates":%d}`, core.MaxCandidatesCeiling))
	t.Logf("default request allocated %d B, one at the ceiling %d B", base, ceiling)
	if ceiling > 8*base {
		t.Errorf("max_candidates %d allocated %d B, more than 8x the default request's %d B",
			core.MaxCandidatesCeiling, ceiling, base)
	}
	rec, _ := doReq(t, h, "POST", "/discover", fmt.Sprintf(`{"max_candidates":%d}`, core.MaxCandidatesCeiling+1))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("max_candidates above the ceiling: code %d, want 400", rec.Code)
	}
}
