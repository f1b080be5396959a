package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/kge"
)

// The multi-model registry. A Server hosts any number of models over one
// shared dataset, keyed by canonical weight fingerprint (kge.Fingerprint).
// Requests carry an optional "model" selector — a fingerprint or unique
// fingerprint prefix — and fall back to the default model, so a single-model
// deployment never has to mention fingerprints at all.
//
//	GET    /models      → every live model
//	POST   /models      → load a checkpoint from disk ({"path": ..., "default": bool})
//	DELETE /models/{fp} → unload (in-flight requests finish first)
//
// Unloading is refcounted rather than immediate: mmap-backed models
// (kge.OpenMapped) alias kernel pages, so munmapping while a scoring sweep
// reads the tables would fault the process. Every request path acquires the
// model before touching weights and releases when done; DELETE retires the
// entry (no new acquisitions) and the last release munmaps.

// servedModel bundles one model's weights with the per-model derived
// artifacts: ranker, calibrator, and load provenance.
type servedModel struct {
	model       kge.Model // a *kge.Mapped when its weights alias an mmap'd checkpoint
	ranker      *eval.Ranker
	calibrator  *eval.PlattCalibrator // nil when no validation split exists
	fingerprint string
	path        string // checkpoint path, "" for in-memory models
	loadTime    time.Duration

	mu      sync.Mutex
	refs    int
	retired bool
}

// release drops one reference; the last release of a retired model unmaps it.
func (sm *servedModel) release() {
	sm.mu.Lock()
	sm.refs--
	last := sm.retired && sm.refs == 0
	sm.mu.Unlock()
	if mm, ok := sm.model.(*kge.Mapped); ok && last {
		mm.Close()
	}
}

// retire marks the model unavailable for new acquisitions and unmaps it once
// no request holds it. Callers must have already removed it from the registry
// map (under the registry write lock), so no acquisition can race this.
func (sm *servedModel) retire() {
	sm.mu.Lock()
	sm.retired = true
	last := sm.refs == 0
	sm.mu.Unlock()
	if mm, ok := sm.model.(*kge.Mapped); ok && last {
		mm.Close()
	}
}

// acquireModel resolves a request's model selector to a live model and takes
// a reference on it. The empty selector means the default model. The caller
// must release() exactly once.
func (s *Server) acquireModel(selector string) (*servedModel, error) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	if selector == "" {
		if s.defaultFP == "" {
			return nil, fmt.Errorf("no default model is loaded (select one by fingerprint)")
		}
		selector = s.defaultFP
	}
	sm, err := s.resolveLocked(selector)
	if err != nil {
		return nil, err
	}
	// Incrementing under the registry read lock pairs with retire() running
	// strictly after removal under the write lock: a model found in the map
	// here cannot have been retired yet, so the reference is always taken on
	// a live mapping.
	sm.mu.Lock()
	sm.refs++
	sm.mu.Unlock()
	s.metrics.incModelRequest(sm.fingerprint)
	return sm, nil
}

// resolveLocked maps a model selector — a fingerprint or a unique prefix of
// one — to its registry entry. Fingerprints are 64 hex chars, so accepting a
// short prefix keeps hand-typed requests humane. The caller holds regMu.
func (s *Server) resolveLocked(selector string) (*servedModel, error) {
	if sm, ok := s.models[selector]; ok {
		return sm, nil
	}
	var hit *servedModel
	hits := 0
	for fp, sm := range s.models {
		if strings.HasPrefix(fp, selector) {
			hit = sm
			hits++
		}
	}
	switch hits {
	case 1:
		return hit, nil
	case 0:
		return nil, fmt.Errorf("no loaded model matches %q", selector)
	}
	return nil, fmt.Errorf("model selector %q is ambiguous (%d matches)", selector, hits)
}

// addModel builds the per-model artifacts for m and registers it;
// makeDefault routes selector-less requests to it. Re-adding a fingerprint
// that is already live is not an error: the existing entry is kept (its cache
// entries stay warm), only the default flag is applied, and m stays the
// caller's to close.
func (s *Server) addModel(m kge.Model, path string, loadTime time.Duration, makeDefault bool) (*servedModel, error) {
	if err := kge.CheckCovers(m, s.ds.Train); err != nil {
		return nil, err
	}
	fp := kge.Fingerprint(m)

	s.regMu.RLock()
	existing, ok := s.models[fp]
	s.regMu.RUnlock()
	if ok {
		if makeDefault {
			s.regMu.Lock()
			s.defaultFP = fp
			s.regMu.Unlock()
		}
		return existing, nil
	}

	// The ranker and calibrator read the shared filter union, which mutations
	// rewrite in place: hold the graph read-lock while they are built so a
	// hot-loaded model never derives artifacts from a half-applied batch.
	s.kgMu.RLock()
	ranker := eval.NewRanker(m, s.all)
	s.kgMu.RUnlock()
	sm := &servedModel{
		model:       m,
		ranker:      ranker,
		fingerprint: fp,
		path:        path,
		loadTime:    loadTime,
	}
	if s.ds.Valid.Len() > 0 {
		s.kgMu.RLock()
		cal, err := eval.FitPlatt(m, s.ds.Valid, s.all)
		s.kgMu.RUnlock()
		if err == nil {
			sm.calibrator = cal
		}
	}

	s.regMu.Lock()
	if prior, ok := s.models[fp]; ok {
		// Lost a load race for the same weights; keep the winner.
		if makeDefault {
			s.defaultFP = fp
		}
		s.regMu.Unlock()
		return prior, nil
	}
	s.models[fp] = sm
	if makeDefault || s.defaultFP == "" {
		s.defaultFP = fp
	}
	s.regMu.Unlock()
	return sm, nil
}

// LoadModelFile maps a flat checkpoint from disk (kge.OpenMapped) and
// registers it. Used by kgserve's -models flag and POST /models.
func (s *Server) LoadModelFile(path string, makeDefault bool) (*servedModel, error) {
	start := time.Now()
	m, err := kge.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	sm, err := s.addModel(m, path, time.Since(start), makeDefault)
	if err != nil || sm.model != m {
		m.Close() // refused, or a second mapping of weights already served
	}
	return sm, err
}

// unloadModel removes the model matching selector (exact fingerprint or
// unique prefix) from the registry and retires it. Unloading the default
// clears the default: subsequent selector-less requests fail until another
// model is made default.
func (s *Server) unloadModel(selector string) (string, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	sm, err := s.resolveLocked(selector)
	if err != nil {
		return "", err
	}
	fp := sm.fingerprint
	delete(s.models, fp)
	if s.defaultFP == fp {
		s.defaultFP = ""
	}
	sm.retire()
	return fp, nil
}

// defaultModel returns the current default entry, or nil. It takes no
// reference; callers that score through it must acquireModel instead.
func (s *Server) defaultModel() *servedModel {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.models[s.defaultFP]
}

// modelView is the wire form of one registry entry.
type modelView struct {
	Fingerprint string  `json:"fingerprint"`
	Model       string  `json:"model"`
	Dim         int     `json:"dim"`
	Format      string  `json:"format"` // "flat" when mapped, else "memory"
	Path        string  `json:"path,omitempty"`
	Default     bool    `json:"default"`
	Calibrated  bool    `json:"calibrated"`
	MappedBytes int     `json:"mapped_bytes,omitempty"`
	LoadMS      float64 `json:"load_ms"`
	InFlight    int     `json:"in_flight"`
}

func (s *Server) viewOf(sm *servedModel, isDefault bool) modelView {
	v := modelView{
		Fingerprint: sm.fingerprint,
		Model:       sm.model.Name(),
		Dim:         sm.model.Dim(),
		Format:      "memory",
		Path:        sm.path,
		Default:     isDefault,
		Calibrated:  sm.calibrator != nil,
		LoadMS:      float64(sm.loadTime.Microseconds()) / 1000,
	}
	if mm, ok := sm.model.(*kge.Mapped); ok {
		v.Format, v.MappedBytes = "flat", mm.MappedBytes()
	}
	sm.mu.Lock()
	v.InFlight = sm.refs
	sm.mu.Unlock()
	return v
}

// modelViews snapshots every live model, fingerprint-sorted.
func (s *Server) modelViews() []modelView {
	s.regMu.RLock()
	sms := make([]*servedModel, 0, len(s.models))
	for _, sm := range s.models {
		sms = append(sms, sm)
	}
	defaultFP := s.defaultFP
	s.regMu.RUnlock()
	sort.Slice(sms, func(i, j int) bool { return sms[i].fingerprint < sms[j].fingerprint })
	out := make([]modelView, len(sms))
	for i, sm := range sms {
		out[i] = s.viewOf(sm, sm.fingerprint == defaultFP)
	}
	return out
}

func (s *Server) handleModelList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.modelViews()})
}

// modelLoadRequest asks the server to serve a checkpoint from its local
// filesystem. This is an operator-facing admin endpoint: the server reads
// whatever path it is told to, so deployments that expose it beyond
// localhost should front it with their own authorization.
type modelLoadRequest struct {
	Path    string `json:"path"`
	Default bool   `json:"default"`
}

func (s *Server) handleModelLoad(w http.ResponseWriter, r *http.Request) {
	var req modelLoadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "path is required")
		return
	}
	sm, err := s.LoadModelFile(req.Path, req.Default)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "load %s: %v", req.Path, err)
		return
	}
	s.cfg.Logger.Printf("kgserve: loaded model %s (%s) from %s in %s",
		sm.fingerprint[:12], sm.model.Name(), req.Path, sm.loadTime.Round(time.Microsecond))
	s.regMu.RLock()
	isDefault := s.defaultFP == sm.fingerprint
	s.regMu.RUnlock()
	writeJSON(w, http.StatusCreated, s.viewOf(sm, isDefault))
}

func (s *Server) handleModelUnload(w http.ResponseWriter, r *http.Request) {
	sel := r.PathValue("fp")
	fp, err := s.unloadModel(sel)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.cfg.Logger.Printf("kgserve: unloaded model %s", fp[:12])
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": fp})
}
