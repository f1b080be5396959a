package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := [][]string{
		nil,            // no subcommand
		{"frobnicate"}, // unknown subcommand
		{"coord"},      // one-shot without -data/-model
		{"coord", "-resume", "-data", "d", "-model", "m"}, // -resume without -checkpoint
		{"coord", "-bogus"},
		{"coord", "-data", "d", "-model", "m", "-lease", "3ns"}, // would panic the expiry ticker
		{"coord", "-serve", "-lease", "999us"},                  // reaches workers as lease_ms 0
		{"coord", "-serve", "-lease", "0"},
		{"worker"}, // no -coord
		{"worker", "-bogus"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if err := run(ctx, args, &out, &errBuf); err == nil {
			t.Errorf("run(%q) should fail", args)
		}
	}
}

// syncBuffer lets the test read a subprocess-style log stream while the
// coordinator goroutine is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// trainArtifacts writes a tiny dataset and trained checkpoint to disk — the
// on-disk form the fleet's coordinator and workers consume.
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
	if err := kge.SaveFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

// TestCoordWorkerEndToEnd exercises the full command wiring in one process:
// a one-shot coordinator on a random port, two workers that find it by
// scraping the coordinator's "listening on" log line, and a byte-identity
// check of the fleet TSV against a direct jobs.Run over the same inputs.
// A second coordinator then resumes the first one's journal.
func TestCoordWorkerEndToEnd(t *testing.T) {
	dataDir, modelPath := trainArtifacts(t)
	outTSV := filepath.Join(t.TempDir(), "facts.tsv")
	coordArgs := []string{"coord",
		"-data", dataDir, "-model", modelPath,
		"-strategy", "graph_degree", "-top_n", "40", "-max_candidates", "30", "-seed", "7",
		"-out", outTSV, "-limit", "3", "-checkpoint", filepath.Join(t.TempDir(), "sweep.wal"),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var stderr syncBuffer
	var stdout bytes.Buffer
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run(ctx, coordArgs, &stdout, &stderr)
	}()

	re := regexp.MustCompile(`coordinator listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("coordinator never logged its address:\n%s", stderr.String())
	}

	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() {
			workerErr <- run(ctx, []string{"worker",
				"-coord", "http://" + addr, "-name", name, "-max-idle", "30s",
			}, io.Discard, io.Discard)
		}()
	}

	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v\ncoordinator log:\n%s", err, stderr.String())
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v\nlog:\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "sweep complete:") {
		t.Errorf("stdout missing sweep summary:\n%s", stdout.String())
	}

	got, err := os.ReadFile(outTSV)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same sweep, single-process.
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m, mapped, _, err := kge.LoadAuto(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != nil {
		defer mapped.Close()
	}
	strategy, err := core.StrategyByName("graph_degree")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := jobs.Run(ctx, jobs.Spec{
		Model: m, Graph: ds.Train, Strategy: strategy,
		Options: core.Options{TopN: 40, MaxCandidates: 30, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := kg.NewGraphWithDicts(ds.Train.Entities, ds.Train.Relations)
	for _, f := range res.Facts {
		ref.Add(f.Triple)
	}
	var want bytes.Buffer
	if err := kg.WriteTSV(ref, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("fleet TSV differs from single-process reference:\nfleet:\n%s\nreference:\n%s", got, want.Bytes())
	}

	// -resume on the finished journal recovers every relation, so the sweep
	// completes with no worker and rewrites the same TSV.
	if err := os.Remove(outTSV); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(ctx, append(coordArgs, "-resume"), &resumed, io.Discard); err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	n := len(ds.Train.RelationIDs())
	if line := fmt.Sprintf("checkpoint: resumed %d of %d relations", n, n); !strings.Contains(resumed.String(), line) {
		t.Errorf("resumed stdout lacks %q:\n%s", line, resumed.String())
	}
	if got, err := os.ReadFile(outTSV); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("resumed TSV differs from single-process reference (read error %v)", err)
	}
}
