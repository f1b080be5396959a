package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/bench/ledger"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/graphstats"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/mutate"
	"repro/internal/serve"
)

// serveMixed is the request-path workload: a real kgserve over a loopback
// listener under a closed loop of P keep-alive clients (kgserve's callers are
// programs that wait for the reply), reads beside writes. Every /mutate
// invalidates the hot /discover keys of its relation and takes the graph
// write lock the readers wait on, so a read-path gain that costs writes (or
// the reverse) shows.
type serveMixed struct {
	e   *env
	sha string
	ds  *kg.Dataset

	model   kge.Trainable
	mapped  *kge.Mapped
	srv     *serve.Server
	base    string
	stop    func() error
	clients []*http.Client

	triples []kg.Triple // train triples at set-up, the request vocabulary
	rng     *rand.Rand
	nextSeq int64
	acked   int64
	mutRel  int

	// Every cacheable response of the run, for the hot-equals-cold check.
	cached []cachedResp
	// Per-pass counters.
	hits, cacheable, invalidations, rejected []float64
	coldSpecs                                []discoverBody
}

type cachedResp struct {
	key    string
	xcache string
	sum    [32]byte
}

// request is one scheduled request.
type request struct {
	kind   string // sample class
	path   string
	body   []byte
	key    string // set on requests the server may answer from its cache
	mutate bool
}

// reqSample is one completed request as its client saw it.
type reqSample struct {
	kind   string
	start  time.Time
	wall   time.Duration
	status int
}

type discoverBody struct {
	Strategy      string   `json:"strategy"`
	TopN          int      `json:"top_n"`
	MaxCandidates int      `json:"max_candidates"`
	Relations     []string `json:"relations"`
	Limit         int      `json:"limit"`
	Seed          int64    `json:"seed"`
}

func (w *serveMixed) fixtureSHA() string   { return w.sha }
func (w *serveMixed) primaryClass() string { return "rank" }
func (w *serveMixed) concurrent() bool     { return true }

func (w *serveMixed) setup(st stageTimes) error {
	e := w.e
	var err error
	if w.ds, w.sha, err = makeFixture(e, st); err != nil {
		return err
	}
	var trained kge.Trainable
	if err := st.timed("train.distmult", func() error {
		trained, err = trainedModel(e, "distmult", w.ds, 1)
		return err
	}); err != nil {
		return err
	}
	path := filepath.Join(e.dir, "serve.flat")
	if err := kge.SaveFlatFile(trained, path); err != nil {
		return err
	}
	if err := st.timed("kge.load_flat", func() error {
		w.mapped, err = kge.OpenMapped(path)
		return err
	}); err != nil {
		return err
	}
	w.model = w.mapped.Trainable
	w.triples = append([]kg.Triple(nil), w.ds.Train.Triples()...)

	if err := st.timed("serve.new", func() error {
		w.srv, err = serve.New(w.ds, w.model, serve.Config{
			MutationLog: filepath.Join(e.dir, "mutations.wal"),
			CacheSize:   256,
			MaxDiscover: 4,
			Logger:      log.New(io.Discard, "", 0),
		})
		return err
	}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(e.ctx)
	served := make(chan error, 1)
	go func() { served <- w.srv.Serve(ctx, ln) }()
	w.stop = func() error {
		cancel()
		return <-served
	}
	w.clients = nil
	for c := 0; c < e.p; c++ {
		w.clients = append(w.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   time.Minute,
		})
	}
	w.rng = rand.New(rand.NewSource(e.seed))
	w.nextSeq, w.acked, w.mutRel = 1, 0, 0
	w.cached = nil

	// Warm-up: connections, buffer pools, the calibrator's first use.
	return st.timed("serve.warmup", func() error {
		for i := 0; i < e.pre.warmups; i++ {
			r := w.rankRequest()
			if i%10 == 9 {
				r = w.queryRequest()
			}
			s, _, _, err := w.do(w.clients[i%len(w.clients)], r)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if s.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d", r.path, s.status)
			}
		}
		return nil
	})
}

func (w *serveMixed) teardown() {
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.mapped != nil {
		w.mapped.Close()
		w.mapped = nil
	}
}

func (w *serveMixed) names(t kg.Triple) (s, r, o string) {
	g := w.ds.Train
	return g.Entities.Name(int32(t.S)), g.Relations.Name(int32(t.R)), g.Entities.Name(int32(t.O))
}

// zipfIndex draws an index in [0, n) with a Zipf(1.1) head.
func (w *serveMixed) zipfIndex(n int) int {
	return int(rand.NewZipf(w.rng, 1.1, 1, uint64(n-1)).Uint64())
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and ints are marshalled here
	}
	return b
}

// rankRequest ranks a Zipf-drawn train triple's (s, r) against a random
// object.
func (w *serveMixed) rankRequest() request {
	t := w.triples[w.zipfIndex(len(w.triples))]
	t.O = kg.EntityID(w.rng.Intn(w.ds.Train.NumEntities()))
	s, r, o := w.names(t)
	return request{kind: "rank", path: "/rank", body: jsonBody(map[string]any{"subject": s, "relation": r, "object": o})}
}

func (w *serveMixed) scoreRequest() request {
	s, r, o := w.names(w.triples[w.rng.Intn(len(w.triples))])
	return request{kind: "score", path: "/score", body: jsonBody(map[string]any{"subject": s, "relation": r, "object": o})}
}

// queryRequest asks for the top 10 objects of one of serveQueryKeys (s, r)
// keys, Zipf-drawn.
func (w *serveMixed) queryRequest() request {
	k := w.zipfIndex(w.e.pre.serveQueryKeys)
	t := w.triples[k*len(w.triples)/w.e.pre.serveQueryKeys]
	s, r, _ := w.names(t)
	body := jsonBody(map[string]any{"subject": s, "relation": r, "k": 10})
	return request{kind: "query", path: "/query", key: "/query" + string(body), body: body}
}

// discoverRequest builds a one-relation /discover; hot requests carry their
// body as the key the cached-equals-computed check groups replies by.
func (w *serveMixed) discoverRequest(kind, strategy string, rel int, seed int64) (request, discoverBody) {
	rels := w.ds.Train.RelationIDs()
	b := discoverBody{
		Strategy: strategy, TopN: w.e.pre.topN, MaxCandidates: w.e.pre.maxCandidates,
		Relations: []string{w.ds.Train.Relations.Name(int32(rels[rel%len(rels)]))},
		Limit:     50, Seed: seed,
	}
	r := request{kind: kind, path: "/discover", body: jsonBody(b)}
	if kind == "discover.hot" {
		r.key = "/discover" + string(r.body)
	}
	return r, b
}

// schedule builds one pass's requests, the kinds evenly interleaved.
func (w *serveMixed) schedule(pass int) []request {
	p := w.e.pre
	type placed struct {
		pos float64
		req request
	}
	var all []placed
	place := func(n int, mk func(i int) request) {
		for i := 0; i < n; i++ {
			all = append(all, placed{(float64(i) + 0.5) / float64(n), mk(i)})
		}
	}
	place(p.serveRank, func(int) request { return w.rankRequest() })
	place(p.serveQuery, func(int) request { return w.queryRequest() })
	place(p.serveScore, func(int) request { return w.scoreRequest() })
	place(p.serveCold, func(i int) request {
		strategy := "entity_frequency"
		if i%2 == 1 {
			strategy = "graph_degree"
		}
		// A seed no other request of the run uses: always a full sweep.
		r, b := w.discoverRequest("discover.cold", strategy, pass*p.serveCold+i, int64(1_000_000+pass*p.serveCold+i))
		if pass == 0 && len(w.coldSpecs) < 8 {
			w.coldSpecs = append(w.coldSpecs, b)
		}
		return r
	})
	place(p.serveHot, func(i int) request {
		k := i % p.serveHotKeys
		r, _ := w.discoverRequest("discover.hot", "entity_frequency", k, int64(7+k))
		return r
	})
	place(p.serveMutate, func(int) request { return request{kind: "mutate", path: "/mutate", mutate: true} })
	sort.SliceStable(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	out := make([]request, len(all))
	for i, pl := range all {
		out[i] = pl.req
	}
	return out
}

// do sends one request and reads the whole reply.
func (w *serveMixed) do(c *http.Client, r request) (reqSample, []byte, string, error) {
	s := reqSample{kind: r.kind, start: time.Now()}
	resp, err := c.Post(w.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return s, nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.wall = time.Since(s.start)
	s.status = resp.StatusCode
	return s, body, resp.Header.Get("X-Cache"), err
}

type clientResult struct {
	samples []reqSample
	cached  []cachedResp
	invalid int
	failed  []string
}

// runClient is one closed-loop client: the next request goes out when the
// previous reply has been read. Client 0 is the only writer, so mutation
// batches are built against a graph no one else is changing and their
// sequence numbers arrive in order.
func (w *serveMixed) runClient(c *http.Client, reqs []request, out *clientResult) {
	for _, r := range reqs {
		if r.mutate {
			rels := w.ds.Train.RelationIDs()
			b := mutationBatch(w.ds.Train, rels[w.mutRel%len(rels)], w.nextSeq, w.rng)
			w.mutRel++
			r.body = jsonBody(b)
		}
		s, body, xcache, err := w.do(c, r)
		if err != nil {
			out.failed = append(out.failed, fmt.Sprintf("%s: %v", r.path, err))
			continue
		}
		if s.kind == "discover.hot" && xcache == "hit" {
			s.kind = "discover.hit"
		}
		out.samples = append(out.samples, s)
		if s.status != http.StatusOK {
			out.failed = append(out.failed, fmt.Sprintf("%s: status %d: %.120s", r.path, s.status, body))
			continue
		}
		if r.key != "" {
			out.cached = append(out.cached, cachedResp{key: r.key, xcache: xcache, sum: sha256.Sum256(body)})
		}
		if r.mutate {
			var mr struct {
				Seq         int64 `json:"seq"`
				Invalidated int   `json:"invalidated"`
			}
			if err := json.Unmarshal(body, &mr); err != nil || mr.Seq != w.nextSeq {
				out.failed = append(out.failed, fmt.Sprintf("/mutate: acknowledged seq %d, sent %d (%v)", mr.Seq, w.nextSeq, err))
				continue
			}
			w.nextSeq++
			w.acked++
			out.invalid += mr.Invalidated
		}
	}
}

func (w *serveMixed) pass(i int, rec *recorder, ck *checker) float64 {
	reqs := w.schedule(i)
	// Deal the schedule out in order; writes all go to client 0, which then
	// sits out a turn so the clients stay level.
	lists := make([][]request, len(w.clients))
	turn := 0
	for _, r := range reqs {
		c := turn % len(lists)
		if r.mutate {
			c = 0
		}
		lists[c] = append(lists[c], r)
		turn++
	}
	results := make([]clientResult, len(w.clients))
	tracing := rec.tracing()
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.runClient(w.clients[c], lists[c], &results[c])
		}(c)
	}
	wg.Wait()

	ck.ops(len(reqs))
	var hits, cacheable, invalid, rejected float64
	for c := range results {
		res := &results[c]
		for _, s := range res.samples {
			rec.addSlot(s.kind, s.wall, 0)
			if tracing {
				rec.addSpan("serve.request:"+s.kind, s.start, s.wall)
			}
			if s.status == http.StatusTooManyRequests {
				rejected++
			}
		}
		for _, msg := range res.failed {
			ck.fail("%s", msg)
		}
		for _, cr := range res.cached {
			cacheable++
			if cr.xcache == "hit" {
				hits++
			}
		}
		w.cached = append(w.cached, res.cached...)
		invalid += float64(res.invalid)
	}
	w.hits = append(w.hits, hits)
	w.cacheable = append(w.cacheable, cacheable)
	w.invalidations = append(w.invalidations, invalid)
	w.rejected = append(w.rejected, rejected)
	return float64(len(reqs))
}

// verify checks what can only be judged once every reply is in: a body
// served from the cache equals a body the same key was computed to, and the
// server applied exactly the batches it acknowledged.
func (w *serveMixed) verify(ck *checker) {
	computed := map[string]map[[32]byte]bool{}
	for _, cr := range w.cached {
		if cr.xcache != "hit" {
			if computed[cr.key] == nil {
				computed[cr.key] = map[[32]byte]bool{}
			}
			computed[cr.key][cr.sum] = true
		}
	}
	for _, cr := range w.cached {
		if cr.xcache == "hit" && len(computed[cr.key]) > 0 {
			// Keys first seen as a hit were computed during warm-up.
			ck.check(computed[cr.key][cr.sum], "cached reply for %s matches no computed reply for it", cr.key)
		}
	}
	ck.check(w.srv.MutationSeq() == w.acked, "server is at mutation seq %d, clients had %d batches acknowledged", w.srv.MutationSeq(), w.acked)
}

func (w *serveMixed) digests() map[string]string {
	// Reply bodies carry runtime_ms, so they are not digested; the model and
	// the request schedule are what must repeat.
	return map[string]string{"fingerprint.distmult": w.srv.Fingerprint()}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func (w *serveMixed) finish(out *metricSet, samples map[string]int, rec *recorder) {
	var walls []float64
	var requests float64
	for _, p := range rec.passes {
		walls = append(walls, seconds(p.wall))
		requests = p.work
	}
	if m := ledger.Median(walls); m > 0 {
		out.set("requests_per_s", requests/m)
	}
	tail := func(name, class string, p float64, scale float64) {
		xs := rec.samples(class, nil)
		samples[name] = len(xs)
		if len(xs) == 0 {
			return
		}
		if p == 50 {
			out.set(name, ledger.Median(xs)*scale)
		} else {
			out.set(name, ledger.Percentile(xs, p)*scale)
		}
	}
	tail("rank_p50_ms", "rank", 50, 1)
	tail("rank_p99_ms", "rank", 99, 1)
	tail("discover_cold_p50_ms", "discover.cold", 50, 1)
	tail("discover_cold_p95_ms", "discover.cold", 95, 1)
	tail("mutate_p50_ms", "mutate", 50, 1)
	tail("mutate_p90_ms", "mutate", 90, 1)
	tail("serve.query_p50_ms", "query", 50, 1)
	tail("serve.score_p50_us", "score", 50, 1000)
	tail("serve.discover_hit_p50_us", "discover.hit", 50, 1000)
	if c := sum(w.cacheable); c > 0 {
		out.set("serve.cache_hit_share", sum(w.hits)/c)
	}
	out.set("serve.cache_invalidations", sum(w.invalidations)/float64(len(rec.passes)))
	out.set("serve.rejected_429", sum(w.rejected))
}

func (w *serveMixed) probes(out *metricSet) error {
	e := w.e
	// /rank minus the ranking it wraps: the same filtered ranker, called
	// directly on triples drawn like the requests'.
	rk := eval.NewRanker(w.model, kg.Merge(w.ds.Train, w.ds.Valid, w.ds.Test))
	var direct []float64
	for i := 0; i < 20*e.pre.probeReps; i++ {
		t := w.triples[w.zipfIndex(len(w.triples))]
		t.O = kg.EntityID(w.rng.Intn(w.ds.Train.NumEntities()))
		st := time.Now()
		rk.RankObject(t)
		direct = append(direct, micros(time.Since(st)))
	}
	out.set("eval.rank_object_us", ledger.Median(direct))
	if v, ok := out.values["rank_p50_ms"]; ok {
		out.set("serve.rank_overhead_us", v*1000-ledger.Median(direct))
	}

	// Cold /discover minus the sweep it wraps.
	var sweeps []float64
	for _, b := range w.coldSpecs {
		strategy, err := core.ExtendedStrategyByName(b.Strategy)
		if err != nil {
			return err
		}
		rid, _ := w.ds.Train.Relations.Lookup(b.Relations[0])
		st := time.Now()
		if _, err := core.DiscoverFacts(e.ctx, w.model, w.ds.Train, strategy, core.Options{
			TopN: b.TopN, MaxCandidates: b.MaxCandidates, Relations: []kg.RelationID{kg.RelationID(rid)}, Seed: b.Seed,
		}); err != nil {
			return fmt.Errorf("discover probe: %w", err)
		}
		sweeps = append(sweeps, millis(time.Since(st)))
	}
	if v, ok := out.values["discover_cold_p50_ms"]; ok && len(sweeps) > 0 {
		out.set("serve.discover_overhead_ms", v-ledger.Median(sweeps))
	}

	var err error
	scrape := timeIt(e.pre.probeReps, func() {
		resp, gerr := w.clients[0].Get(w.base + "/metrics")
		if gerr != nil {
			err = gerr
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if err != nil {
		return fmt.Errorf("metrics probe: %w", err)
	}
	out.set("serve.metrics_scrape_ms", millis(scrape))

	// Cold start: the same weights from each container.
	gob, flat := filepath.Join(e.dir, "probe.gob"), filepath.Join(e.dir, "probe.flat")
	if err := kge.SaveFile(w.model, gob); err != nil {
		return err
	}
	if err := kge.SaveFlatFile(w.model, flat); err != nil {
		return err
	}
	out.set("kge.load_gob_ms", millis(timeIt(e.pre.probeReps, func() {
		if _, lerr := kge.LoadFile(gob); lerr != nil {
			err = lerr
		}
	})))
	out.set("kge.load_flat_ms", millis(timeIt(e.pre.probeReps, func() {
		m, lerr := kge.OpenMapped(flat)
		if lerr != nil {
			err = lerr
			return
		}
		m.Close()
	})))
	if err != nil {
		return fmt.Errorf("checkpoint load probe: %w", err)
	}
	out.set("kge.fingerprint_ms", millis(timeIt(e.pre.probeReps, func() { kge.Fingerprint(w.model) })))

	return w.probeMutate(out)
}

// probeMutate times the layers under /mutate on a private clone: the
// in-memory apply, the fsync'd log append, and the live undirected
// projection's per-edge update.
func (w *serveMixed) probeMutate(out *metricSet) error {
	e := w.e
	clone := w.ds.Train.Clone()
	st := mutate.NewState(clone, nil, nil)
	rng := rand.New(rand.NewSource(e.seed))
	rels := clone.RelationIDs()
	var apply []float64
	var batches []mutate.Batch
	for i := 0; i < 4*e.pre.probeReps; i++ {
		b := mutationBatch(clone, rels[i%len(rels)], st.Seq()+1, rng)
		t := time.Now()
		if _, err := st.Apply(b); err != nil {
			return fmt.Errorf("mutate probe: %w", err)
		}
		apply = append(apply, micros(time.Since(t)))
		batches = append(batches, b)
	}
	out.set("mutate.apply_p50_us", ledger.Median(apply))

	mlog, _, err := mutate.OpenLog(filepath.Join(e.dir, "probe-mutations.wal"), "probe")
	if err != nil {
		return fmt.Errorf("mutate log probe: %w", err)
	}
	defer mlog.Close()
	var appends []float64
	for _, b := range batches {
		t := time.Now()
		if err := mlog.Append(b); err != nil {
			return fmt.Errorf("mutate log probe: %w", err)
		}
		appends = append(appends, micros(time.Since(t)))
	}
	out.set("mutate.log_append_p50_us", ledger.Median(appends))

	live := graphstats.NewLive(clone)
	n := clone.NumEntities()
	const edges = 256
	per := timeIt(e.pre.probeReps, func() {
		for i := 0; i < edges; i++ {
			a, b := kg.EntityID(rng.Intn(n)), kg.EntityID(rng.Intn(n))
			live.AddTriple(a, b)
			live.RemoveTriple(a, b)
		}
	})
	out.set("graphstats.live_us_per_op", micros(per)/(2*edges))
	return nil
}
