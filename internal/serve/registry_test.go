package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
)

// secondModel builds a distmult with the same geometry as the shared test
// model but different weights, saves it as a flat checkpoint, and returns
// the path plus its fingerprint. Loading it through POST /models exercises
// the mmap path end to end.
func secondModel(t testing.TB, dir string, seed int64) (path, fingerprint string) {
	t.Helper()
	ds, _ := testModel(t)
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] = float32(rng.NormFloat64()) * 0.1
		}
	}
	path = filepath.Join(dir, fmt.Sprintf("second-%d.kgf", seed))
	if err := kge.SaveFlatFile(m, path); err != nil {
		t.Fatal(err)
	}
	return path, kge.Fingerprint(m)
}

func TestModelAdminEndpoints(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	path, fp := secondModel(t, t.TempDir(), 77)

	rec, body := doReq(t, h, "GET", "/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /models: %d %v", rec.Code, body)
	}
	if n := len(body["models"].([]any)); n != 1 {
		t.Fatalf("fresh server lists %d models, want 1", n)
	}

	rec, body = doReq(t, h, "POST", "/models", map[string]any{"path": path})
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /models: %d %v", rec.Code, body)
	}
	if body["fingerprint"] != fp {
		t.Errorf("loaded fingerprint %v, want %s", body["fingerprint"], fp)
	}
	if body["format"] != "flat" {
		t.Errorf("loaded format %v, want flat", body["format"])
	}
	if body["default"] != false {
		t.Errorf("non-default load became default")
	}
	if mb, _ := body["mapped_bytes"].(float64); mb <= 0 {
		t.Errorf("flat-loaded model reports mapped_bytes %v, want > 0", body["mapped_bytes"])
	}

	rec, body = doReq(t, h, "GET", "/models", nil)
	if n := len(body["models"].([]any)); n != 2 {
		t.Fatalf("after load, %d models listed, want 2", n)
	}

	// Loading the same checkpoint again is idempotent, not a duplicate.
	rec, _ = doReq(t, h, "POST", "/models", map[string]any{"path": path})
	if rec.Code != http.StatusCreated {
		t.Fatalf("re-POST /models: %d", rec.Code)
	}
	if _, body = doReq(t, h, "GET", "/models", nil); len(body["models"].([]any)) != 2 {
		t.Fatal("re-loading the same checkpoint duplicated the registry entry")
	}

	// Route a scoring request to the second model by fingerprint prefix; the
	// two models must disagree somewhere, proving per-model routing.
	ds := srv.ds
	var routed bool
	for i := 0; i < ds.Train.Entities.Len() && !routed; i++ {
		req := map[string]any{
			"subject":  ds.Train.Entities.Name(int32(i)),
			"relation": ds.Train.Relations.Name(0),
			"object":   ds.Train.Entities.Name(int32((i + 1) % ds.Train.Entities.Len())),
		}
		_, d := doReq(t, h, "POST", "/score", req)
		req["model"] = fp[:12]
		rec, b := doReq(t, h, "POST", "/score", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("score with model selector: %d %v", rec.Code, b)
		}
		if b["score"] != d["score"] {
			routed = true
		}
	}
	if !routed {
		t.Error("selector-routed scores identical to default model on every probe")
	}

	// Unknown and (post-unload) stale selectors 404.
	rec, _ = doReq(t, h, "POST", "/score", map[string]any{
		"subject": ds.Train.Entities.Name(0), "relation": ds.Train.Relations.Name(0),
		"object": ds.Train.Entities.Name(1), "model": "beef0000",
	})
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown selector: %d, want 404", rec.Code)
	}

	rec, body = doReq(t, h, "DELETE", "/models/"+fp[:12], nil)
	if rec.Code != http.StatusOK || body["unloaded"] != fp {
		t.Fatalf("DELETE /models: %d %v", rec.Code, body)
	}
	rec, _ = doReq(t, h, "POST", "/score", map[string]any{
		"subject": ds.Train.Entities.Name(0), "relation": ds.Train.Relations.Name(0),
		"object": ds.Train.Entities.Name(1), "model": fp,
	})
	if rec.Code != http.StatusNotFound {
		t.Errorf("unloaded fingerprint still routes: %d, want 404", rec.Code)
	}
	rec, _ = doReq(t, h, "DELETE", "/models/"+fp[:12], nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("double unload: %d, want 404", rec.Code)
	}
}

// TestModelDefaultSwap unloads the default model and promotes a replacement:
// selector-less requests must fail in between (never silently fall through
// to an arbitrary model) and recover once a new default is set.
func TestModelDefaultSwap(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	ds := srv.ds
	defaultFP := srv.Fingerprint()
	path, fp := secondModel(t, t.TempDir(), 79)

	scoreReq := map[string]any{
		"subject": ds.Train.Entities.Name(0), "relation": ds.Train.Relations.Name(0),
		"object": ds.Train.Entities.Name(1),
	}
	if rec, _ := doReq(t, h, "DELETE", "/models/"+defaultFP, nil); rec.Code != http.StatusOK {
		t.Fatalf("unload default: %d", rec.Code)
	}
	if rec, _ := doReq(t, h, "POST", "/score", scoreReq); rec.Code != http.StatusNotFound {
		t.Fatalf("selector-less request with no default: %d, want 404", rec.Code)
	}
	rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": path, "default": true})
	if rec.Code != http.StatusCreated || body["default"] != true {
		t.Fatalf("promote replacement: %d %v", rec.Code, body)
	}
	if got := srv.Fingerprint(); got != fp {
		t.Fatalf("default fingerprint %s, want %s", got, fp)
	}
	if rec, _ := doReq(t, h, "POST", "/score", scoreReq); rec.Code != http.StatusOK {
		t.Fatalf("selector-less request after swap: %d, want 200", rec.Code)
	}
}

// TestModelSelectorResolution runs one selector table through both callers of
// the registry's resolver — /score (acquireModel) and DELETE /models/{fp}
// (unloadModel) — so the two cannot drift apart again. Extra models are
// loaded until two fingerprints share a first hex digit, which makes the
// ambiguous case whatever the weights are.
func TestModelSelectorResolution(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	dir := t.TempDir()
	byFirst := map[byte]string{srv.Fingerprint()[0]: srv.Fingerprint()}
	var a, b string
	for seed := int64(100); a == ""; seed++ {
		path, fp := secondModel(t, dir, seed)
		if _, err := srv.LoadModelFile(path, false); err != nil {
			t.Fatal(err)
		}
		if prev, ok := byFirst[fp[0]]; ok {
			a, b = prev, fp
		}
		byFirst[fp[0]] = fp
	}
	shared := 0
	for a[shared] == b[shared] {
		shared++
	}

	ds := srv.ds
	scoreReq := func(selector string) map[string]any {
		return map[string]any{
			"subject": ds.Train.Entities.Name(0), "relation": ds.Train.Relations.Name(0),
			"object": ds.Train.Entities.Name(1), "model": selector,
		}
	}
	// Ordered so that only the last case changes the registry.
	for _, c := range []struct {
		name, selector string
		code           int
		errPart        string
	}{
		{"no match", "zz", http.StatusNotFound, "no loaded model matches"},
		{"ambiguous", a[:shared], http.StatusNotFound, "ambiguous"},
		{"unique prefix", a[:shared+1], http.StatusOK, ""},
	} {
		rec, body := doReq(t, h, "POST", "/score", scoreReq(c.selector))
		if rec.Code != c.code {
			t.Errorf("%s: /score %d %v, want %d", c.name, rec.Code, body, c.code)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, c.errPart) {
			t.Errorf("%s: /score error %q, want one containing %q", c.name, msg, c.errPart)
		}
		rec, body = doReq(t, h, "DELETE", "/models/"+c.selector, nil)
		if rec.Code != c.code {
			t.Errorf("%s: DELETE %d %v, want %d", c.name, rec.Code, body, c.code)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, c.errPart) {
			t.Errorf("%s: DELETE error %q, want one containing %q", c.name, msg, c.errPart)
		}
		if c.code == http.StatusOK && body["unloaded"] != a {
			t.Errorf("%s: DELETE unloaded %v, want %s", c.name, body["unloaded"], a)
		}
	}
}

// TestRegistryHotSwapUnderDiscover is the race-detector stress test: one
// goroutine repeatedly loads and unloads an mmap-backed model while others
// hammer /discover (routed to it by fingerprint) and /score. The substituted
// discover function reads the routed model's weights on every call, so an
// unload that munmapped while a request held the model would fault; the
// refcount must make that impossible. Run with -race.
func TestRegistryHotSwapUnderDiscover(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.CacheSize = -1; c.MaxDiscover = 16 })
	srv.discover = func(_ context.Context, m kge.Model, g *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		// Touch the weights the way a real sweep would.
		out := make([]float32, m.NumEntities())
		for r := 0; r < 3; r++ {
			m.ScoreAllObjects(0, kg.RelationID(r%g.Relations.Len()), out)
		}
		return &core.Result{}, nil
	}
	h := srv.Handler()
	path, fp := secondModel(t, t.TempDir(), 83)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the swapper
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": path})
			if rec.Code != http.StatusCreated {
				t.Errorf("swap %d load: %d %v", i, rec.Code, body)
				return
			}
			time.Sleep(time.Millisecond)
			if rec, _ := doReq(t, h, "DELETE", "/models/"+fp, nil); rec.Code != http.StatusOK {
				t.Errorf("swap %d unload: %d", i, rec.Code)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Against the swapped model: 200 when loaded, 404 in the gaps
				// — anything else is a routing bug.
				rec, body := doReq(t, h, "POST", "/discover", map[string]any{"model": fp, "seed": 3})
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					t.Errorf("discover vs swapped model: %d %v", rec.Code, body)
					return
				}
				// Against the default model: always 200.
				if rec, body := doReq(t, h, "POST", "/discover", map[string]any{"seed": 3}); rec.Code != http.StatusOK {
					t.Errorf("discover vs default model: %d %v", rec.Code, body)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestJobHoldsModelAcrossUnload: an async job keeps its model mapped until
// the sweep finishes, even when the model is unloaded mid-run; afterwards
// the mapping is released.
func TestJobHoldsModelAcrossUnload(t *testing.T) {
	srv := newTestServer(t, nil)
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	srv.discover = func(ctx context.Context, m kge.Model, _ *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		running <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// Read the weights after the unload happened: only the refcount
		// keeps these pages mapped.
		m.Score(kg.Triple{S: 0, R: 0, O: 1})
		return &core.Result{}, nil
	}
	h := srv.Handler()
	path, fp := secondModel(t, t.TempDir(), 89)
	if rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": path}); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d %v", rec.Code, body)
	}
	srv.regMu.RLock()
	sm := srv.models[fp]
	srv.regMu.RUnlock()
	mm, ok := sm.model.(*kge.Mapped)
	if !ok {
		t.Fatal("second model is not mmap-backed")
	}

	rec, body := doReq(t, h, "POST", "/jobs", map[string]any{"model": fp})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", rec.Code, body)
	}
	jobURL := body["url"].(string)
	<-running

	if rec, _ := doReq(t, h, "DELETE", "/models/"+fp, nil); rec.Code != http.StatusOK {
		t.Fatalf("unload while job runs: %d", rec.Code)
	}
	if mm.MappedBytes() == 0 {
		t.Fatal("model unmapped while a job still holds it")
	}
	close(release)

	deadline := time.After(5 * time.Second)
	for {
		_, body = doReq(t, h, "GET", jobURL, nil)
		if body["state"] == "done" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job never finished: %v", body)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// OnFinish fires just after the terminal state becomes visible; settle
	// by joining the idempotent Close rather than polling internals.
	waitRelease := time.After(5 * time.Second)
	for {
		sm.mu.Lock()
		refs := sm.refs
		sm.mu.Unlock()
		if refs == 0 {
			break
		}
		select {
		case <-waitRelease:
			t.Fatalf("job finished but still holds %d refs", refs)
		case <-time.After(5 * time.Millisecond):
		}
	}
	mm.Close() // joins the in-flight close, if any; idempotent
	if mm.MappedBytes() != 0 {
		t.Fatal("retired model still mapped after its last reference was released")
	}
}

// TestRegistryRefusesUncoveredVocabulary: a model with fewer entities or
// relations than the dataset would index past its tables in a ranking
// worker, outside any recovery. New and POST /models both refuse it.
func TestRegistryRefusesUncoveredVocabulary(t *testing.T) {
	ds, _ := testModel(t)
	srv := newTestServer(t, nil)
	h := srv.Handler()
	dir := t.TempDir()
	nEnt, nRel := ds.Train.Entities.Len(), ds.Train.Relations.Len()
	for _, shape := range []struct {
		name       string
		ents, rels int
	}{
		{"relations", nEnt, nRel - 1},
		{"entities", nEnt - 1, nRel},
	} {
		m, err := kge.New("distmult", kge.Config{NumEntities: shape.ents, NumRelations: shape.rels, Dim: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(ds, m, Config{}); err == nil {
			t.Errorf("New accepted a model short of %s", shape.name)
		}
		path := filepath.Join(dir, shape.name+".kgf")
		if err := kge.SaveFlatFile(m, path); err != nil {
			t.Fatal(err)
		}
		if rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": path}); rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("POST /models with a model short of %s: %d %v, want 422", shape.name, rec.Code, body)
		}
	}
	if _, body := doReq(t, h, "GET", "/models", nil); len(body["models"].([]any)) != 1 {
		t.Errorf("refused loads changed the registry: %v", body["models"])
	}
}

// TestRegistryRefusesCraftedCheckpoint: POST /models on a valid DistMult
// flat checkpoint whose header claims 2⁴⁰ entities, both CRCs resealed,
// answers 422 with the loader's shape error, without allocating the table
// the header names, and leaves the registry as it was.
func TestRegistryRefusesCraftedCheckpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	m, err := kge.New("distmult", kge.Config{NumEntities: 4, NumRelations: 2, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kge.SaveFlat(m, &buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// NumEntities follows the magic, the version, the header size and the
	// length-prefixed name; the header's CRC ends the header, the file's
	// the file.
	binary.LittleEndian.PutUint64(b[8+4+4+4+len("distmult"):], 1<<40)
	hdr := int(binary.LittleEndian.Uint32(b[12:16]))
	binary.LittleEndian.PutUint32(b[hdr-4:], crc32.ChecksumIEEE(b[:hdr-4]))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	path := filepath.Join(t.TempDir(), "crafted.kgf")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, before := doReq(t, h, "GET", "/models", nil)
	rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": path})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(fmt.Sprint(body["error"]), `parameter "entity" shape [4 4]`) {
		t.Errorf("POST /models with a crafted checkpoint: %d %v, want 422 naming the entity shape", rec.Code, body)
	}
	if _, after := doReq(t, h, "GET", "/models", nil); fmt.Sprint(after["models"]) != fmt.Sprint(before["models"]) {
		t.Errorf("a refused load changed the registry: %v, was %v", after["models"], before["models"])
	}
}

// TestRegistryRefusesGobCheckpoint: POST /models on a gob checkpoint answers
// 422 with an error naming kgconvert, which migrates it to flat.
func TestRegistryRefusesGobCheckpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	h := srv.Handler()
	rec, body := doReq(t, h, "POST", "/models", map[string]any{"path": "../kge/testdata/distmult.kge"})
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(fmt.Sprint(body["error"]), "kgconvert") {
		t.Errorf("POST /models with a gob checkpoint: %d %v, want 422 naming kgconvert", rec.Code, body)
	}
}
