package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// testArtifacts holds one trained tiny model shared by every test in the
// package; the dataset and model are read-only once trained.
var testArtifacts struct {
	once sync.Once
	ds   *kg.Dataset
	m    kge.Model
	err  error
}

func testModel(t testing.TB) (*kg.Dataset, kge.Model) {
	t.Helper()
	testArtifacts.once.Do(func() {
		ds, err := synth.Generate(synth.Tiny())
		if err != nil {
			testArtifacts.err = err
			return
		}
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          8,
			Seed:         1,
		})
		if err != nil {
			testArtifacts.err = err
			return
		}
		if _, err := train.Run(context.Background(), m, ds, train.Config{Epochs: 3, BatchSize: 64, Seed: 2}); err != nil {
			testArtifacts.err = err
			return
		}
		testArtifacts.ds, testArtifacts.m = ds, m
	})
	if testArtifacts.err != nil {
		t.Fatalf("building test artifacts: %v", testArtifacts.err)
	}
	return testArtifacts.ds, testArtifacts.m
}

// newTestServer builds a Server over the shared artifacts with access logs
// discarded; mut tweaks the config before construction.
func newTestServer(t testing.TB, mut func(*Config)) *Server {
	t.Helper()
	ds, m := testModel(t)
	cfg := Config{Logger: log.New(io.Discard, "", 0)}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(ds, m, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// doReq runs one request through the handler and decodes the JSON body.
func doReq(t testing.TB, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		switch b := body.(type) {
		case string:
			buf.WriteString(b)
		default:
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("invalid JSON response %q: %v", rec.Body.String(), err)
		}
	}
	return rec, out
}

// stubResult is a minimal well-formed discovery result for stubbed
// discover functions.
func stubResult() *core.Result {
	return &core.Result{Facts: []core.Fact{{Triple: kg.Triple{S: 1, R: 0, O: 2}, Rank: 1}}}
}

const discoverBody = `{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":3}`

// TestSingleFlightDiscover hammers one cacheable /discover key with N
// concurrent requests and requires exactly one underlying DiscoverFacts
// execution: one leader, N-1 requests either coalesced onto its flight or
// served from the cache it populated, all with byte-identical bodies.
func TestSingleFlightDiscover(t *testing.T) {
	srv := newTestServer(t, nil)
	var execs atomic.Int64
	release := make(chan struct{})
	srv.discover = func(context.Context, kge.Model, *kg.Graph, core.Strategy, core.Options) (*core.Result, error) {
		execs.Add(1)
		<-release
		return stubResult(), nil
	}
	h := srv.Handler()

	const n = 24
	codes := make([]int, n)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/discover", strings.NewReader(discoverBody))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			bodies[i] = rec.Body.String()
		}(i)
	}

	// The leader blocks inside discover and the cache stays empty until it
	// finishes, so every other request must eventually coalesce onto the
	// flight. Wait for all of them before releasing the leader.
	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.waiting.Load() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests coalesced", srv.flight.waiting.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("DiscoverFacts executed %d times, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: code %d, want 200", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	hits, misses, dedups := srv.metrics.cacheHits.Value(), srv.metrics.cacheMisses.Value(), srv.metrics.dedups.Value()
	if hits+dedups != n-1 {
		t.Errorf("hits (%d) + dedups (%d) = %d, want %d", hits, dedups, hits+dedups, n-1)
	}
	if misses != dedups+1 {
		t.Errorf("misses = %d, want dedups+1 = %d", misses, dedups+1)
	}

	// A follow-up request is a pure cache hit: no new execution.
	rec, _ := doReq(t, h, "POST", "/discover", discoverBody)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("follow-up: code %d X-Cache %q, want 200/hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if execs.Load() != 1 {
		t.Fatalf("follow-up re-executed discovery")
	}
}

// TestSemaphoreCapNeverExceeded mixes distinct /discover keys and asserts
// the concurrency semaphore holds: at most MaxDiscover executions run at
// once, and every overflow request is refused with 429 + Retry-After.
func TestSemaphoreCapNeverExceeded(t *testing.T) {
	const capacity = 2
	srv := newTestServer(t, func(c *Config) { c.MaxDiscover = capacity })
	var cur, peak atomic.Int64
	release := make(chan struct{})
	srv.discover = func(context.Context, kge.Model, *kg.Graph, core.Strategy, core.Options) (*core.Result, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			m := peak.Load()
			if n <= m || peak.CompareAndSwap(m, n) {
				break
			}
		}
		<-release
		return stubResult(), nil
	}
	h := srv.Handler()

	const n = 12
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":%d}`, i)
			req := httptest.NewRequest("POST", "/discover", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
			retryAfter[i] = rec.Header().Get("Retry-After")
		}(i)
	}

	// Exactly cap requests hold the semaphore (blocked in discover); the
	// other n-cap must be rejected. Wait until they all have been.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rejected := srv.metrics.rejected.Value()
		if rejected == n-capacity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejected = %d, want %d", rejected, n-capacity)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := peak.Load(); got > capacity {
		t.Fatalf("observed %d concurrent discoveries, cap is %d", got, capacity)
	}
	var ok200, ok429 int
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			ok429++
			if retryAfter[i] == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected code %d", i, codes[i])
		}
	}
	if ok200 != capacity || ok429 != n-capacity {
		t.Fatalf("got %d×200 and %d×429, want %d and %d", ok200, ok429, capacity, n-capacity)
	}
}

// TestGracefulShutdown cancels the serve context while a /discover request
// is in flight: the in-flight request must complete with 200 while new
// connections are refused, and Serve must return nil after the drain.
func TestGracefulShutdown(t *testing.T) {
	srv := newTestServer(t, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.discover = func(context.Context, kge.Model, *kg.Graph, core.Strategy, core.Options) (*core.Result, error) {
		close(entered)
		<-release
		return stubResult(), nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	type result struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/discover", "application/json", strings.NewReader(discoverBody))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: b}
	}()

	<-entered // the request is inside DiscoverFacts
	cancel()  // begin graceful shutdown

	// New connections must be refused once the listener closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting connections after shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release) // let the in-flight discovery finish
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request: code %d, want 200", res.code)
	}
	var body map[string]any
	if err := json.Unmarshal(res.body, &body); err != nil || body["facts"] == nil {
		t.Fatalf("in-flight response not a full discovery body: %s", res.body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}
