package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/train"
)

func TestRunFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), nil, &buf); err == nil {
		t.Error("run without -data/-model should fail")
	}
	if err := run(context.Background(), []string{"-bogus"}, &buf); err == nil {
		t.Error("run with an unknown flag should fail")
	}
	if err := run(context.Background(), []string{"-data", "x"}, &buf); err == nil {
		t.Error("run without -model should fail")
	}
}

// trainArtifacts writes a tiny dataset and trained checkpoint to disk, the
// on-disk form serve.Load consumes.
func trainArtifacts(t *testing.T) (dataDir, modelPath string) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := kg.LoadDataset("tiny", dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  reloaded.Train.Entities.Len(),
		NumRelations: reloaded.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(context.Background(), m, reloaded, train.Config{Epochs: 3, BatchSize: 64, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(t.TempDir(), "m.kge")
	if err := kge.SaveFlatFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

// TestServeEndToEnd exercises the wiring main performs: load artifacts from
// disk, serve over a real TCP listener, hit /healthz and /discover twice
// (the second must be a cache hit), confirm the hit shows up in /metrics,
// then cancel the context and require a clean graceful drain.
func TestServeEndToEnd(t *testing.T) {
	dataDir, modelPath := trainArtifacts(t)
	srv, err := serve.Load(dataDir, modelPath, serve.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatalf("serve.Load: %v", err)
	}
	if srv.Fingerprint() == "" {
		t.Error("empty model fingerprint")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"strategy":"graph_degree","top_n":20,"max_candidates":30,"limit":5,"seed":3}`
	post := func() (string, string) {
		resp, err := http.Post(base+"/discover", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("discover: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("discover: %d %s", resp.StatusCode, b)
		}
		return string(b), resp.Header.Get("X-Cache")
	}
	b1, c1 := post()
	b2, c2 := post()
	if c1 != "miss" || c2 != "hit" {
		t.Errorf("X-Cache sequence %q, %q; want miss, hit", c1, c2)
	}
	if b1 != b2 {
		t.Errorf("cached body differs from original:\n%s\nvs\n%s", b1, b2)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "kgserve_cache_hits_total 1") {
		t.Errorf("metrics missing cache hit counter:\n%s", mb)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not drain after cancel")
	}
}
