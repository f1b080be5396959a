package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
)

// fuzzPaths are the four JSON request decoders under test.
var fuzzPaths = []string{"/score", "/rank", "/query", "/discover"}

// FuzzDecodeRequest drives arbitrary bodies through every POST decoder and
// asserts the error contract: handlers never panic (a panic would either
// crash the test process or surface as a 5xx through the recovery
// middleware), no input produces a 5xx, and every non-2xx response is
// well-formed {"error": ...} JSON. Discovery itself is stubbed so the fuzzer
// exercises decoding and validation, not embedding sweeps.
func FuzzDecodeRequest(f *testing.F) {
	srv := newTestServer(f, nil)
	srv.discover = func(context.Context, kge.Model, *kg.Graph, core.Strategy, core.Options) (*core.Result, error) {
		return stubResult(), nil
	}
	h := srv.Handler()

	// Seed corpus: the table-driven error cases plus one valid body per
	// endpoint.
	seeds := []struct {
		which uint8
		body  string
	}{
		{0, `{"subject":"e1","relation":"r0","object":"e2"}`},
		{0, `{"subject":"ghost","relation":"r0","object":"e2"}`},
		{0, "{"},
		{0, ""},
		{1, `{"subject":"e1","relation":"ghost","object":"e2"}`},
		{1, `{"subject":`},
		{2, `{"subject":"e1","relation":"r0","k":5}`},
		{2, `{"subject":"e1","relation":"r0","k":-1}`},
		{2, "not json"},
		{3, `{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":3}`},
		{3, `{"strategy":"bogus"}`},
		{3, `{"relations":["ghost"]}`},
		{3, `{"top_n":-5}`},
		{3, `{"max_candidates":-1,"limit":-2}`},
		{3, `{"strategy"`},
		{3, `{"seed":9223372036854775807,"k":null}`},
		{3, `{"strategy":"graph_degree","top_n":20,"max_candidates":30} {"top_n":-1}`},
		{2, `{"subject":"e1","relation":"r0","k":2}garbage`},
	}
	for _, s := range seeds {
		f.Add(s.which, []byte(s.body))
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		path := fuzzPaths[int(which)%len(fuzzPaths)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("%s with body %q: server error %d: %s", path, body, rec.Code, rec.Body.String())
		}
		if rec.Code < 200 || rec.Code >= 300 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s with body %q: non-2xx %d without error JSON: %q", path, body, rec.Code, rec.Body.String())
			}
		} else if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s with body %q: 2xx with invalid JSON body: %q", path, body, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s with body %q: Content-Type %q", path, body, ct)
		}
	})
}
