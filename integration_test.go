package repro

// End-to-end integration tests: the full pipeline a user of this library
// runs — generate a dataset, train a model, evaluate it, calibrate it,
// discover facts with a sampling strategy, cross-check against the
// exhaustive baseline, score the discoveries with the recovery protocol,
// and round-trip the model through a checkpoint — plus the distributed
// path: the same sweep through real kgfleet coordinator and worker
// processes, byte-identical to a local kgdiscover run.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline")
	}
	ctx := context.Background()

	// 1. Dataset.
	ds, err := synth.Generate(synth.Config{
		Name:         "e2e",
		NumEntities:  120,
		NumRelations: 5,
		NumTriples:   1200,
		NumTypes:     4,
		EntityZipf:   1.0,
		RelationZipf: 0.8,
		ClosureProb:  0.2,
		NoiseProb:    0.05,
		ValidFrac:    0.05,
		TestFrac:     0.05,
		Seed:         77,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	// 2. Train with early stopping on validation MRR.
	model, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          24,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	filter := ds.All()
	hist, err := train.Run(ctx, model, ds, train.Config{
		Epochs:     40,
		BatchSize:  128,
		NegSamples: 4,
		Seed:       2,
		EvalEvery:  5,
		Patience:   4,
		Validate: func(m kge.Model) float64 {
			return eval.Evaluate(eval.NewRanker(m, filter), ds.Valid, eval.Options{MaxTriples: 60}).MRR
		},
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if len(hist.Epochs) == 0 {
		t.Fatal("no training epochs")
	}

	// 3. Evaluate link prediction; must beat random guessing clearly.
	res := eval.Evaluate(eval.NewRanker(model, filter), ds.Test, eval.Options{})
	nEnt := float64(ds.Train.Entities.Len())
	randomMRR := 0.0
	for i := 1.0; i <= nEnt; i++ {
		randomMRR += 1 / i
	}
	randomMRR /= nEnt
	if res.MRR < 2*randomMRR {
		t.Fatalf("test MRR %.4f did not beat 2x random %.4f", res.MRR, randomMRR)
	}

	// 4. Calibrate scores to probabilities, as kgserve's /score does.
	if _, err := eval.FitPlatt(model, ds.Valid, filter); err != nil {
		t.Fatalf("calibrate: %v", err)
	}

	// 5. Discover facts and cross-check completeness against the
	//    exhaustive baseline on one relation.
	rel := ds.Train.RelationIDs()[0]
	sampled, err := core.DiscoverFacts(ctx, model, ds.Train, core.NewClusteringTriangles(), core.Options{
		TopN:          20,
		MaxCandidates: 80,
		Relations:     []kg.RelationID{rel},
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	exhaustive, _, err := core.ExhaustiveDiscover(ctx, model, ds.Train, core.ExhaustiveOptions{
		TopN:      20,
		Relations: []kg.RelationID{rel},
	})
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	inExhaustive := make(map[kg.Triple]struct{}, len(exhaustive.Facts))
	for _, f := range exhaustive.Facts {
		inExhaustive[f.Triple] = struct{}{}
	}
	for _, f := range sampled.Facts {
		if _, ok := inExhaustive[f.Triple]; !ok {
			t.Fatalf("sampled fact %v not found by the exhaustive baseline", f.Triple)
		}
	}

	// 6. Score discoveries against held-out splits with the recovery
	//    protocol machinery (valid+test act as "hidden" truth here).
	ranked := make([]eval.RankedFact, len(sampled.Facts))
	for i, f := range sampled.Facts {
		ranked[i] = eval.RankedFact{Triple: f.Triple, Rank: f.Rank}
	}
	report := eval.EvaluateDiscovery(ranked, kg.Merge(ds.Valid, ds.Test))
	if report.Discovered != len(sampled.Facts) {
		t.Errorf("report covers %d facts, want %d", report.Discovered, len(sampled.Facts))
	}

	// 7. Checkpoint round trip preserves behaviour.
	path := filepath.Join(t.TempDir(), "model.kge")
	if err := kge.SaveFlatFile(model, path); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := kge.OpenMapped(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	defer back.Close()
	probe := ds.Test.Triples()[0]
	if back.Score(probe) != model.Score(probe) {
		t.Error("checkpoint round trip changed scores")
	}
}

// TestEndToEndFleet runs the distributed discovery path with real
// processes: a kgfleet coordinator and two workers sweep a saved
// dataset/checkpoint submitted by kgdiscover -fleet, and the TSV must be
// byte-identical to a local kgdiscover run over the same inputs. The
// coordinator and the workers run until SIGTERM, and each then exits 0.
// Skips when the binaries cannot be built (e.g. no go toolchain in the test
// environment).
func TestEndToEndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet pipeline")
	}
	fleetBin := buildCmdOrSkip(t, "kgfleet")
	discoverBin := buildCmdOrSkip(t, "kgdiscover")

	// Saved artifacts: a tiny dataset and a seeded (untrained — training is
	// irrelevant to splice identity) checkpoint, the on-disk form the fleet
	// consumes.
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	model, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "m.kge")
	if err := kge.SaveFlatFile(model, modelPath); err != nil {
		t.Fatal(err)
	}

	logs, out := t.TempDir(), t.TempDir()
	discover := func(name string, extra ...string) []byte {
		t.Helper()
		tsv := filepath.Join(out, name+".tsv")
		p := startProc(t, filepath.Join(logs, name+".log"), discoverBin, append([]string{
			"-data", dataDir, "-model", modelPath,
			"-strategy", "graph_degree", "-top_n", "40", "-max_candidates", "30", "-seed", "7",
			"-limit", "0", "-out", tsv}, extra...)...)
		if err := p.Wait(2 * time.Minute); err != nil {
			t.Fatalf("kgdiscover %s: %v\nlog:\n%s", name, err, p.Log())
		}
		b, err := os.ReadFile(tsv)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Reference: the identical sweep, single-process.
	want := discover("local")
	if len(want) == 0 {
		t.Fatal("local run discovered no facts; the comparison would be vacuous")
	}

	// Fleet: coordinator on a random port plus two workers, as real
	// processes wired together by scraping the coordinator's log.
	coord := startProc(t, filepath.Join(logs, "coord.log"), fleetBin, "coord")
	addr := coord.MustWaitLine(t, `coordinator listening on (\S+)`, 30*time.Second)
	procs := []*childProc{coord}
	for _, name := range []string{"w0", "w1"} {
		procs = append(procs, startProc(t, filepath.Join(logs, name+".log"), fleetBin, "worker",
			"-coord", "http://"+addr, "-name", name, "-max-idle", "30s"))
	}
	got := discover("fleet", "-fleet", addr)
	if !bytes.Equal(got, want) {
		t.Errorf("fleet TSV differs from the local run:\nfleet:\n%s\nlocal:\n%s", got, want)
	}

	for _, p := range procs {
		if err := p.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM %s: %v", p.Name, err)
		}
	}
	for _, p := range procs {
		if err := p.Wait(30 * time.Second); err != nil {
			t.Errorf("%s after SIGTERM: %v\nlog:\n%s", p.Name, err, p.Log())
		}
	}
}
