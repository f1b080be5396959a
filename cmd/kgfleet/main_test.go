package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
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
		{"coord", "-bogus"},
		{"coord", "-data", "d"},      // sweeps arrive as POST /sweep, not flags
		{"coord", "-lease", "3ns"},   // would panic the expiry ticker
		{"coord", "-lease", "999us"}, // reaches workers as lease_ms 0
		{"coord", "-lease", "0"},
		{"worker"}, // no -coord
		{"worker", "-bogus"},
	}
	for _, args := range cases {
		if err := run(ctx, args, io.Discard); err == nil {
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
	if err := kge.SaveFlatFile(m, modelPath); err != nil {
		t.Fatal(err)
	}
	return dataDir, modelPath
}

// TestCoordWorkerEndToEnd exercises the full command wiring in one process:
// a coordinator on a random port, two workers that find it by scraping the
// coordinator's "listening on" log line, a sweep submitted as POST /sweep,
// and a byte-identity check of the fleet TSV against a direct jobs.Run over
// the same inputs. A second coordinator then resumes the first one's journal.
func TestCoordWorkerEndToEnd(t *testing.T) {
	dataDir, modelPath := trainArtifacts(t)
	req := fleet.SweepRequest{
		Data: dataDir, Model: modelPath, Strategy: "graph_degree",
		Options:    fleet.SweepOptions{TopN: 40, MaxCandidates: 30, Seed: 7},
		Checkpoint: filepath.Join(t.TempDir(), "sweep.wal"),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Reference: the same sweep, single-process.
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.OpenMapped(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	strategy, err := core.StrategyByName(req.Strategy)
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
	// sweepTSV renders a response's facts the way kgdiscover -fleet does.
	sweepTSV := func(resp *fleet.SweepResponse) []byte {
		t.Helper()
		out := filepath.Join(t.TempDir(), "facts.tsv")
		if err := jobs.ReportFacts(io.Discard, ds.Train, jobs.FactsOf(resp.Facts), 0, out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	coordCtx, stopCoord := context.WithCancel(ctx)
	addr, coordErr, coordLog := startCoord(t, coordCtx)
	workerCtx, stopWorkers := context.WithCancel(ctx)
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		go func() {
			workerErr <- run(workerCtx, []string{"worker",
				"-coord", "http://" + addr, "-name", name, "-max-idle", "30s",
			}, io.Discard)
		}()
	}

	resp := postSweep(t, addr, req)
	if got := sweepTSV(resp); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("fleet TSV differs from single-process reference:\nfleet:\n%s\nreference:\n%s", got, want.Bytes())
	}
	stopWorkers()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Fatalf("worker: %v\ncoordinator log:\n%s", err, coordLog.String())
		}
	}
	stopCoord()
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v\nlog:\n%s", err, coordLog.String())
	}

	// A fresh coordinator resuming the finished journal recovers every
	// relation, so the sweep completes with no worker and splices the same
	// facts.
	coordCtx, stopCoord = context.WithCancel(ctx)
	addr, coordErr, coordLog = startCoord(t, coordCtx)
	req.Resume = true
	resumed := postSweep(t, addr, req)
	stopCoord()
	if err := <-coordErr; err != nil {
		t.Fatalf("resumed coordinator: %v\nlog:\n%s", err, coordLog.String())
	}
	n := len(ds.Train.RelationIDs())
	if resumed.Fleet.Resumed != n || resumed.Fleet.TotalRelations != n {
		t.Errorf("resumed %d of %d relations, want %d of %d", resumed.Fleet.Resumed, resumed.Fleet.TotalRelations, n, n)
	}
	if got := sweepTSV(resumed); !bytes.Equal(got, want.Bytes()) {
		t.Error("resumed TSV differs from single-process reference")
	}
}

// startCoord runs a coordinator on a random port until ctx ends and returns
// the address it logged, the channel that receives run's result, and its log.
func startCoord(t *testing.T, ctx context.Context) (string, <-chan error, *syncBuffer) {
	t.Helper()
	var stderr syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, []string{"coord"}, &stderr) }()
	re := regexp.MustCompile(`coordinator listening on (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], errc, &stderr
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never logged its address:\n%s", stderr.String())
	return "", nil, nil
}

// postSweep submits req to the coordinator at addr and decodes the finished
// sweep.
func postSweep(t *testing.T, addr string, req fleet.SweepRequest) *fleet.SweepResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post("http://"+addr+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(httpResp.Body)
		t.Fatalf("POST /sweep: HTTP %d: %s", httpResp.StatusCode, raw)
	}
	var resp fleet.SweepResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}
