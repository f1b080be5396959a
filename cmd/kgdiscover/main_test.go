package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

func fixture(t *testing.T) (dataDir, modelPath string) {
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
	m, err := kge.New("transe", kge.Config{
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
	if err := kge.SaveFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

func TestRunDiscovers(t *testing.T) {
	dataDir, modelPath := fixture(t)
	outTSV := filepath.Join(t.TempDir(), "facts.tsv")
	err := run([]string{"-data", dataDir, "-model", modelPath,
		"-strategy", "graph_degree", "-top_n", "20", "-max_candidates", "30",
		"-limit", "3", "-out", outTSV})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if fi, err := os.Stat(outTSV); err != nil || fi.Size() == 0 {
		t.Errorf("facts TSV missing or empty: %v", err)
	}
}

func TestRunFilteredAndCached(t *testing.T) {
	dataDir, modelPath := fixture(t)
	err := run([]string{"-data", dataDir, "-model", modelPath,
		"-strategy", "cluster_triangles", "-top_n", "20", "-max_candidates", "30",
		"-rank_filtered", "-cache_weights", "-limit", "0"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dataDir, modelPath := fixture(t)
	if err := run([]string{"-data", dataDir}); err == nil {
		t.Error("accepted missing -model")
	}
	if err := run([]string{"-data", dataDir, "-model", modelPath, "-strategy", "bogus"}); err == nil {
		t.Error("accepted unknown strategy")
	}
	if err := run([]string{"-data", dataDir, "-model", modelPath, "-resume"}); err == nil {
		t.Error("accepted -resume without -checkpoint")
	}
	// Under -fleet the sweep runs in the workers, so a local profile would
	// be empty; the combination is refused before any coordinator is asked.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		err := run([]string{"-data", dataDir, "-model", modelPath, "-fleet", "127.0.0.1:1",
			flag, filepath.Join(t.TempDir(), "p.prof")})
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("-fleet with %s: got %v, want an error naming %s", flag, err, flag)
		}
	}
}

// TestRunCheckpointResume exercises the WAL path end to end: a checkpointed
// run matches a plain run byte for byte, an existing journal is refused
// without -resume, and resuming — over both a complete journal and one with
// its tail chopped off mid-record (a crash stand-in) — reproduces the exact
// same TSV.
func TestRunCheckpointResume(t *testing.T) {
	dataDir, modelPath := fixture(t)
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	argv := func(out string, extra ...string) []string {
		return append([]string{"-data", dataDir, "-model", modelPath,
			"-strategy", "graph_degree", "-top_n", "20", "-max_candidates", "30",
			"-limit", "0", "-out", out}, extra...)
	}
	tsv := func(name string) string { return filepath.Join(dir, name+".tsv") }
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if err := run(argv(tsv("plain"))); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if err := run(argv(tsv("ckpt"), "-checkpoint", wal)); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if read(tsv("ckpt")) != read(tsv("plain")) {
		t.Fatal("checkpointed output differs from plain run")
	}

	// The journal exists now; reusing it without -resume must be refused so
	// a typo'd path cannot graft one run onto another.
	if err := run(argv(tsv("clobber"), "-checkpoint", wal)); err == nil {
		t.Fatal("accepted an existing checkpoint without -resume")
	}

	// Resume over the complete journal: every relation is recovered, output
	// identical.
	if err := run(argv(tsv("resumed"), "-checkpoint", wal, "-resume")); err != nil {
		t.Fatalf("resume over complete journal: %v", err)
	}
	if read(tsv("resumed")) != read(tsv("plain")) {
		t.Fatal("resumed output differs from plain run")
	}

	// Chop the journal's tail mid-record — what a SIGKILL during an fsync'd
	// append leaves behind — and resume: the damaged tail is discarded, the
	// missing relations re-swept, and the output still byte-identical.
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:len(b)*3/5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(argv(tsv("crashed"), "-checkpoint", wal, "-resume")); err != nil {
		t.Fatalf("resume over truncated journal: %v", err)
	}
	if read(tsv("crashed")) != read(tsv("plain")) {
		t.Fatal("post-crash resume output differs from plain run")
	}

	// A checkpoint written by different options must be rejected.
	if err := run(argv(tsv("foreign"), "-checkpoint", wal, "-resume", "-seed", "99")); err == nil {
		t.Fatal("accepted a checkpoint from different options")
	}
}

// TestRunCheckpointExtensionStrategy checkpoints a sweep under a strategy
// from beyond the paper's six: kgmutate and kgserve have always resolved
// those names, and kgdiscover is the only command that writes the -baseline
// kgmutate splices against, so it has to as well. The journal must resume
// into the same TSV.
func TestRunCheckpointExtensionStrategy(t *testing.T) {
	dataDir, modelPath := fixture(t)
	dir := t.TempDir()
	wal := filepath.Join(dir, "sweep.wal")
	for _, strategy := range []string{"mixed_exploration", "inverse_degree"} {
		os.Remove(wal)
		argv := func(out string, extra ...string) []string {
			return append([]string{"-data", dataDir, "-model", modelPath,
				"-strategy", strategy, "-top_n", "20", "-max_candidates", "30",
				"-limit", "0", "-out", filepath.Join(dir, out)}, extra...)
		}
		if err := run(argv("ckpt.tsv", "-checkpoint", wal)); err != nil {
			t.Fatalf("%s: checkpointed run: %v", strategy, err)
		}
		if err := run(argv("resumed.tsv", "-checkpoint", wal, "-resume")); err != nil {
			t.Fatalf("%s: resume: %v", strategy, err)
		}
		ckpt, err := os.ReadFile(filepath.Join(dir, "ckpt.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(filepath.Join(dir, "resumed.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpt) == 0 || string(ckpt) != string(resumed) {
			t.Errorf("%s: resumed TSV (%d bytes) differs from the checkpointed run's (%d bytes)", strategy, len(resumed), len(ckpt))
		}
	}
}

// TestRunFleet routes a sweep through an in-process coordinator and worker
// via -fleet and requires the TSV to be byte-identical to the local run.
func TestRunFleet(t *testing.T) {
	dataDir, modelPath := fixture(t)
	dir := t.TempDir()
	argv := func(out string, extra ...string) []string {
		return append([]string{"-data", dataDir, "-model", modelPath,
			"-strategy", "graph_degree", "-top_n", "20", "-max_candidates", "30",
			"-limit", "2", "-out", out}, extra...)
	}
	localTSV := filepath.Join(dir, "local.tsv")
	fleetTSV := filepath.Join(dir, "fleet.tsv")

	if err := run(argv(localTSV)); err != nil {
		t.Fatalf("local run: %v", err)
	}

	// An unreachable coordinator must surface as an error, not a hang.
	if err := run(argv(fleetTSV, "-fleet", "http://127.0.0.1:1")); err == nil {
		t.Error("accepted an unreachable coordinator")
	}

	coord := fleet.New(fleet.Config{})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: srv.URL, Name: "w0"})
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); w.Run(ctx) }()
	defer func() { cancel(); <-workerDone }()

	if err := run(argv(fleetTSV, "-fleet", srv.URL)); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	local, err := os.ReadFile(localTSV)
	if err != nil {
		t.Fatal(err)
	}
	viaFleet, err := os.ReadFile(fleetTSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(local) != string(viaFleet) {
		t.Errorf("fleet TSV differs from local run:\nlocal:\n%s\nfleet:\n%s", local, viaFleet)
	}
}
