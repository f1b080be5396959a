package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/wire"
)

// errOverloaded reports that the discovery semaphore is full; the handler
// maps it to 429 + Retry-After.
var errOverloaded = errors.New("serve: discovery concurrency limit reached")

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	m := s.ds.Metadata()
	resp := map[string]any{
		"dataset":    m.Name,
		"train":      m.Train,
		"validation": m.Validation,
		"test":       m.Test,
		"entities":   m.Entities,
		"relations":  m.Relations,
	}
	s.regMu.RLock()
	resp["models"] = len(s.models)
	s.regMu.RUnlock()
	if sm := s.defaultModel(); sm != nil {
		resp["model"] = sm.model.Name()
		resp["dim"] = sm.model.Dim()
		resp["fingerprint"] = sm.fingerprint
		resp["calibrated"] = sm.calibrator != nil
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// tripleRequest names a triple by its dictionary labels. Model optionally
// selects a registry entry by fingerprint (or unique prefix); empty routes
// to the default model.
type tripleRequest struct {
	Subject  string `json:"subject"`
	Relation string `json:"relation"`
	Object   string `json:"object"`
	Model    string `json:"model"`
}

// resolve maps the request names to IDs, reporting which name is unknown.
func (s *Server) resolve(req tripleRequest) (kg.Triple, error) {
	sid, ok := s.ds.Train.Entities.Lookup(req.Subject)
	if !ok {
		return kg.Triple{}, fmt.Errorf("unknown subject %q", req.Subject)
	}
	rid, ok := s.ds.Train.Relations.Lookup(req.Relation)
	if !ok {
		return kg.Triple{}, fmt.Errorf("unknown relation %q", req.Relation)
	}
	oid, ok := s.ds.Train.Entities.Lookup(req.Object)
	if !ok {
		return kg.Triple{}, fmt.Errorf("unknown object %q", req.Object)
	}
	return kg.Triple{S: kg.EntityID(sid), R: kg.RelationID(rid), O: kg.EntityID(oid)}, nil
}

// parseTriple is /score's and /rank's prologue: decode, acquire the model
// (the caller owns the release), resolve the names. On failure it has
// written the error response and holds no model reference.
func (s *Server) parseTriple(w http.ResponseWriter, r *http.Request) (*servedModel, kg.Triple, bool) {
	var req tripleRequest
	if !wire.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return nil, kg.Triple{}, false
	}
	sm, err := s.acquireModel(req.Model)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return nil, kg.Triple{}, false
	}
	t, err := s.resolve(req)
	if err != nil {
		sm.release()
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return nil, kg.Triple{}, false
	}
	return sm, t, true
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	sm, t, ok := s.parseTriple(w, r)
	if !ok {
		return
	}
	defer sm.release()
	score := sm.model.Score(t)
	s.kgMu.RLock()
	known := s.all.Contains(t)
	s.kgMu.RUnlock()
	resp := map[string]any{"score": score, "known": known}
	if sm.calibrator != nil {
		resp["probability"] = sm.calibrator.Prob(score)
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	sm, t, ok := s.parseTriple(w, r)
	if !ok {
		return
	}
	defer sm.release()
	// RankObjects, not the per-triple RankObject: the same rank from one
	// sweep and a correction over the shared filter graph's (s, r) adjacency,
	// where RankObject would probe that graph once per entity — all of it
	// under the read lock /mutate waits on.
	s.kgMu.RLock()
	rank := sm.ranker.RankObjects(t.S, t.R, []kg.EntityID{t.O})[0]
	s.kgMu.RUnlock()
	wire.WriteJSON(w, http.StatusOK, map[string]any{"rank": rank})
}

type queryRequest struct {
	Subject  string `json:"subject"`
	Relation string `json:"relation"`
	K        int    `json:"k"`
	Model    string `json:"model"`
}

type queryAnswer struct {
	Object string  `json:"object"`
	Score  float32 `json:"score"`
	Known  bool    `json:"known"`
}

// queryKey is the canonicalized form of a query request: resolved IDs and
// the effective k, so label aliases and default-k spellings share one cache
// entry.
type queryKey struct {
	S kg.EntityID   `json:"s"`
	R kg.RelationID `json:"r"`
	K int           `json:"k"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !wire.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.K < 0 {
		wire.WriteError(w, http.StatusBadRequest, "k must be non-negative, got %d", req.K)
		return
	}
	sm, err := s.acquireModel(req.Model)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer sm.release()
	sid, ok := s.ds.Train.Entities.Lookup(req.Subject)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown subject %q", req.Subject)
		return
	}
	rid, ok := s.ds.Train.Relations.Lookup(req.Relation)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown relation %q", req.Relation)
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k > sm.model.NumEntities() {
		k = sm.model.NumEntities()
	}
	key := s.cacheKey("query", sm.fingerprint, queryKey{S: kg.EntityID(sid), R: kg.RelationID(rid), K: k})
	err = s.answer(w, key, func() ([]byte, error) {
		return s.runQuery(sm, key, kg.EntityID(sid), kg.RelationID(rid), k)
	})
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, "query failed: %v", err)
	}
}

// answer writes the body cached under key (X-Cache: hit), or runs compute
// once for all concurrent requests for key (the leader's X-Cache: miss, the
// joiners' dedup), counting each outcome. It writes the body on success and
// returns compute's error for the caller to map to a status.
func (s *Server) answer(w http.ResponseWriter, key string, compute func() ([]byte, error)) error {
	if body, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		wire.WriteBody(w, http.StatusOK, body)
		return nil
	}
	s.metrics.cacheMisses.Inc()
	body, err, joined := s.flight.Do(key, compute)
	if joined {
		s.metrics.dedups.Inc()
		w.Header().Set("X-Cache", "dedup")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if err == nil {
		wire.WriteBody(w, http.StatusOK, body)
	}
	return err
}

// runQuery performs one full object sweep for (s, r) against sm, renders the
// top-k answer body, and caches it tagged with rid (the response depends on
// the weights and on rid's membership only). The graph read and the cache
// add share one read-lock hold: a mutation can therefore never interleave
// between this body being rendered and it entering the cache, which would
// outlive the invalidation. The caller holds a reference on sm for the
// duration (single-flight waiters ride on the leader's reference).
func (s *Server) runQuery(sm *servedModel, key string, sid kg.EntityID, rid kg.RelationID, k int) ([]byte, error) {
	scores := sm.model.ScoreAllObjects(sid, rid, make([]float32, sm.model.NumEntities()))
	top := topK(scores, k)
	s.kgMu.RLock()
	defer s.kgMu.RUnlock()
	answers := make([]queryAnswer, 0, k)
	for _, o := range top {
		t := kg.Triple{S: sid, R: rid, O: kg.EntityID(o)}
		answers = append(answers, queryAnswer{
			Object: s.ds.Train.Entities.Name(int32(o)),
			Score:  scores[o],
			Known:  s.all.Contains(t),
		})
	}
	b, err := json.Marshal(map[string]any{"answers": answers})
	if err == nil {
		s.cache.Add(key, b, []kg.RelationID{rid})
	}
	return b, err
}

type discoverRequest struct {
	Strategy      string   `json:"strategy"`
	TopN          int      `json:"top_n"`
	MaxCandidates int      `json:"max_candidates"`
	Relations     []string `json:"relations"`
	Limit         int      `json:"limit"`
	Seed          int64    `json:"seed"`
	Model         string   `json:"model"`
}

// discoverKey is the canonicalized form of a discover request: the strategy
// name defaulted, relation labels resolved to sorted IDs, core's output
// defaults applied. Its JSON rendering (fixed field order) plus the weight
// fingerprint is the cache key.
type discoverKey struct {
	Strategy      string          `json:"strategy"`
	TopN          int             `json:"top_n"`
	MaxCandidates int             `json:"max_candidates"`
	Relations     []kg.RelationID `json:"relations"`
	Limit         int             `json:"limit"`
	Seed          int64           `json:"seed"`
}

type discoveredFact struct {
	Subject  string `json:"subject"`
	Relation string `json:"relation"`
	Object   string `json:"object"`
	Rank     int    `json:"rank"`
}

// cacheKey derives the response-cache key: endpoint, the resolved model's
// canonical weight fingerprint (so entries are namespaced per model and a
// hot-swap can never serve stale answers), and the canonicalized request.
func (s *Server) cacheKey(endpoint, fingerprint string, canonical any) string {
	b, _ := json.Marshal(canonical)
	return endpoint + "\x00" + fingerprint + "\x00" + string(b)
}

// discoverCall is a discover-shaped request — the body of POST /discover and
// of POST /jobs — decoded, validated and resolved against the server: the
// strategy constructed, the model referenced (the caller owns the release),
// relation names turned into sorted IDs, and the run's defaulted core.Options.
type discoverCall struct {
	req      discoverRequest
	strategy core.Strategy
	sm       *servedModel
	opts     core.Options
}

// parseDiscover is the one reader of discover-shaped requests, so a rule
// added here holds on both endpoints. On failure it has written the error
// response and holds no model reference.
func (s *Server) parseDiscover(w http.ResponseWriter, r *http.Request) (*discoverCall, bool) {
	var req discoverRequest
	if !wire.Decode(w, r, s.cfg.MaxBodyBytes, &req) {
		return nil, false
	}
	if req.TopN < 0 || req.MaxCandidates < 0 || req.Limit < 0 || req.MaxCandidates > core.MaxCandidatesCeiling {
		wire.WriteError(w, http.StatusBadRequest,
			"top_n, max_candidates, and limit must be non-negative and max_candidates at most %d, got %d/%d/%d",
			core.MaxCandidatesCeiling, req.TopN, req.MaxCandidates, req.Limit)
		return nil, false
	}
	if req.Strategy == "" {
		req.Strategy = "entity_frequency"
	}
	strategy, err := core.StrategyByName(req.Strategy)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	sm, err := s.acquireModel(req.Model)
	if err != nil {
		wire.WriteError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	var relations []kg.RelationID
	for _, name := range req.Relations {
		rid, ok := s.ds.Train.Relations.Lookup(name)
		if !ok {
			sm.release()
			wire.WriteError(w, http.StatusNotFound, "unknown relation %q", name)
			return nil, false
		}
		relations = append(relations, kg.RelationID(rid))
	}
	// A sweep's output does not depend on the relations' order, so two orders
	// are one request; a repeated relation would be swept twice.
	if slices.Sort(relations); len(slices.Compact(relations)) < len(req.Relations) {
		sm.release()
		wire.WriteError(w, http.StatusBadRequest, "relations %q repeat a name", req.Relations)
		return nil, false
	}
	call := &discoverCall{req: req, strategy: strategy, sm: sm, opts: core.Options{
		TopN:          req.TopN,
		MaxCandidates: req.MaxCandidates,
		Relations:     relations,
		Seed:          req.Seed,
	}.WithOutputDefaults()}
	return call, true
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	call, ok := s.parseDiscover(w, r)
	if !ok {
		return
	}
	sm, req, relations := call.sm, call.req, call.opts.Relations
	defer sm.release()

	key := s.cacheKey("discover", sm.fingerprint,
		discoverKey{req.Strategy, call.opts.TopN, call.opts.MaxCandidates, relations, req.Limit, req.Seed})
	// Relation tags (see lruEntry): only a relation-local strategy produces
	// responses that depend solely on the requested relations' own data.
	// Every node-statistic strategy reads entity statistics other relations'
	// mutations can move, so its entries carry the nil tag and drop on any
	// effective mutation.
	var tag []kg.RelationID
	if call.strategy.RelationLocal() && len(relations) > 0 {
		tag = relations
	}
	err := s.answer(w, key, func() ([]byte, error) {
		return s.runDiscover(call, key, tag)
	})
	switch {
	case err == nil:
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", "1")
		wire.WriteError(w, http.StatusTooManyRequests, "server is at its discovery concurrency limit, retry shortly")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Never partial facts: DiscoverFacts propagates cancellation as an
		// error instead of returning a truncated result set.
		wire.WriteError(w, http.StatusServiceUnavailable, "discovery timed out after %s", s.cfg.RequestTimeout)
	default:
		wire.WriteError(w, http.StatusInternalServerError, "discovery failed: %v", err)
	}
}

// runDiscover executes one discovery sweep against call.sm under the
// concurrency semaphore and renders the response body. It runs on a server-scoped
// context (with the same deadline as any request) rather than the leader
// request's context, so a single client disconnect cannot cancel a sweep
// that other coalesced requests are waiting on. The caller holds the
// call's model reference for the duration.
func (s *Server) runDiscover(call *discoverCall, key string, tag []kg.RelationID) ([]byte, error) {
	select {
	case s.discoverSem <- struct{}{}:
	default:
		s.metrics.rejected.Inc()
		return nil, errOverloaded
	}
	defer func() { <-s.discoverSem }()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	// The sweep reads the live graph; excluding mutations for its duration
	// (and caching inside the same hold, so the entry can never slip in
	// after an invalidation it should have been covered by).
	s.kgMu.RLock()
	defer s.kgMu.RUnlock()
	res, err := s.discover(ctx, call.sm.model, s.ds.Train, call.strategy, call.opts)
	if err != nil {
		return nil, err
	}
	s.metrics.scoreSweeps.Add(uint64(res.Stats.ScoreSweeps))
	s.metrics.batchedSweeps.Add(uint64(res.Stats.BatchedSweeps))
	s.metrics.batchRows.Add(uint64(res.Stats.BatchRows))
	b, err := s.renderResult(res, call.req.Limit)
	if err == nil {
		s.cache.Add(key, b, tag)
	}
	return b, err
}
