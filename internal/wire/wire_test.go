package wire

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type request struct {
	A int    `json:"a"`
	B string `json:"b"`
}

// TestDecode walks the body rule: one JSON value of the request's type,
// optionally followed by whitespace, within the limit.
func TestDecode(t *testing.T) {
	for _, tt := range []struct {
		body string
		code int
		want string // the reply body; "" for success
	}{
		{`{"a":1,"b":"x"}`, 200, ""},
		{"\n {\"a\":1}\r\n\t ", 200, ""},
		{``, 400, `{"error":"invalid JSON: EOF"}` + "\n"},
		{`{"a":1,"c":2}`, 400, `{"error":"invalid JSON: json: unknown field \"c\""}` + "\n"},
		{`{"a":1} {"a":2}`, 400, `{"error":"invalid JSON: data after the first JSON value"}` + "\n"},
		{`{"a":1}x`, 400, `{"error":"invalid JSON: data after the first JSON value"}` + "\n"},
		{`{"a":1}}`, 400, `{"error":"invalid JSON: data after the first JSON value"}` + "\n"},
		{`{"b":"` + strings.Repeat("x", 40) + `"}`, 413, `{"error":"request body exceeds 32 bytes"}` + "\n"},
		{`{"a":1}` + strings.Repeat(" ", 40), 413, `{"error":"request body exceeds 32 bytes"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		var v request
		ok := Decode(rec, httptest.NewRequest("POST", "/", strings.NewReader(tt.body)), 32, &v)
		if ok != (tt.want == "") || ok && v.A != 1 {
			t.Errorf("%q: ok=%t, decoded %+v", tt.body, ok, v)
		}
		if !ok && (rec.Code != tt.code || rec.Body.String() != tt.want || rec.Header().Get("Content-Type") != "application/json") {
			t.Errorf("%q: %d %q, want %d %q", tt.body, rec.Code, rec.Body.String(), tt.code, tt.want)
		}
	}
}

// TestPost covers the client side: a 2xx reply is decoded, a non-2xx one is
// an error carrying the reply's status and error message, and the read
// stops at the limit.
func TestPost(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req request
		if !Decode(w, r, 1<<10, &req) {
			return
		}
		switch req.B {
		case "ok":
			WriteJSON(w, http.StatusOK, request{A: req.A + 1, B: strings.Repeat("y", req.A)})
		case "refuse":
			WriteError(w, http.StatusConflict, "refused %d", req.A)
		default:
			http.Error(w, "bad gateway", http.StatusBadGateway)
		}
	}))
	defer srv.Close()
	post := func(req request, limit int64) (request, error) {
		var got request
		err := Post(context.Background(), srv.Client(), srv.URL, req, &got, limit)
		return got, err
	}
	if got, err := post(request{A: 3, B: "ok"}, 1<<10); err != nil || got != (request{A: 4, B: "yyy"}) {
		t.Errorf("2xx: %+v, %v", got, err)
	}
	if _, err := post(request{A: 7, B: "refuse"}, 1<<10); err == nil || err.Error() != "refused 7 (HTTP 409)" {
		t.Errorf("409: %v", err)
	}
	if _, err := post(request{B: "other"}, 1<<10); err == nil || err.Error() != "HTTP 502" {
		t.Errorf("502 without an error body: %v", err)
	}
	if _, err := post(request{A: 100, B: "ok"}, 50); err == nil || !strings.Contains(err.Error(), "unexpected end of JSON input") {
		t.Errorf("reply over the limit: %v, want a decode error", err)
	}
}

// TestHandle: a typed endpoint answers 200 with its reply, and a body
// Decode refuses never reaches it.
func TestHandle(t *testing.T) {
	calls := 0
	h := Handle(1<<10, func(req request) request { calls++; return request{A: req.A * 2} })
	for _, tt := range []struct {
		body string
		code int
		want string
	}{
		{`{"a":21}`, 200, `{"a":42,"b":""}` + "\n"},
		{`{"a":21,"z":1}`, 400, `{"error":"invalid JSON: json: unknown field \"z\""}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/", strings.NewReader(tt.body)))
		if rec.Code != tt.code || rec.Body.String() != tt.want {
			t.Errorf("%s: %d %q, want %d %q", tt.body, rec.Code, rec.Body.String(), tt.code, tt.want)
		}
	}
	if calls != 1 {
		t.Errorf("handler ran %d times, want 1", calls)
	}
}
