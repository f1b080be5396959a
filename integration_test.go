package repro

// End-to-end integration tests: the full pipeline a user of this library
// runs — generate a dataset, train a model, evaluate it, calibrate it,
// discover facts with a sampling strategy, cross-check against the
// exhaustive baseline, score the discoveries with the recovery protocol,
// and round-trip the model through a checkpoint — plus the distributed
// path: the same sweep through real kgfleet coordinator and worker
// processes, byte-identical to the in-process run.

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
	"repro/internal/jobs"
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

	// 4. Calibrate and classify.
	if _, err := eval.FitPlatt(model, ds.Valid, filter, eval.CalibrationOptions{Seed: 3}); err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	clf, err := eval.TrainClassifier(model, ds.Valid, filter, 3)
	if err != nil {
		t.Fatalf("classifier: %v", err)
	}
	cls := eval.EvaluateClassifier(clf, ds.Test, filter, 4)
	if cls.Accuracy <= 0.5 {
		t.Errorf("classification accuracy %.3f not better than chance", cls.Accuracy)
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
	if err := kge.SaveFile(model, path); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := kge.LoadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	probe := ds.Test.Triples()[0]
	if back.Score(probe) != model.Score(probe) {
		t.Error("checkpoint round trip changed scores")
	}
}

// TestEndToEndFleet runs the distributed discovery path with real
// processes: a one-shot kgfleet coordinator and two workers sweep a saved
// dataset/checkpoint, and the spliced TSV must be byte-identical to an
// in-process jobs.Run over the same inputs. Skips when the kgfleet binary
// cannot be built (e.g. no go toolchain in the test environment).
func TestEndToEndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet pipeline")
	}
	bin := buildCmdOrSkip(t, "kgfleet")
	ctx := context.Background()

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
	if err := kge.SaveFile(model, modelPath); err != nil {
		t.Fatal(err)
	}

	// Reference: the identical sweep, single-process.
	strategy, err := core.StrategyByName("graph_degree")
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := jobs.Run(ctx, jobs.Spec{
		Model: model, Graph: reloaded.Train, Strategy: strategy,
		Options: core.Options{TopN: 40, MaxCandidates: 30, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := kg.NewGraphWithDicts(reloaded.Train.Entities, reloaded.Train.Relations)
	for _, f := range res.Facts {
		ref.Add(f.Triple)
	}
	var want bytes.Buffer
	if err := kg.WriteTSV(ref, &want); err != nil {
		t.Fatal(err)
	}

	// Fleet: coordinator on a random port plus two workers, as real
	// processes wired together by scraping the coordinator's log.
	logs := t.TempDir()
	outTSV := filepath.Join(t.TempDir(), "facts.tsv")
	coord := startProc(t, filepath.Join(logs, "coord.log"), bin, "coord",
		"-data", dataDir, "-model", modelPath,
		"-strategy", "graph_degree", "-top_n", "40", "-max_candidates", "30", "-seed", "7",
		"-unit", "1", "-out", outTSV, "-limit", "0", "-drain", "2s", "-linger", "2m")
	addr := coord.MustWaitLine(t, `coordinator listening on (\S+)`, 30*time.Second)

	var workers []*childProc
	for _, name := range []string{"w0", "w1"} {
		workers = append(workers, startProc(t, filepath.Join(logs, name+".log"), bin, "worker",
			"-coord", "http://"+addr, "-name", name, "-max-idle", "30s"))
	}
	// The sweep can finish on w0 alone before w1 has registered; a coordinator
	// that exited then would leave w1 retrying a dead address until -max-idle.
	// So the coordinator lingers until both workers have taken their shutdown
	// order, and SIGTERM ends the linger.
	coord.MustWaitLine(t, `sweep complete:`, 2*time.Minute)
	for i, w := range workers {
		if err := w.Wait(30 * time.Second); err != nil {
			t.Fatalf("worker %d: %v\nlog:\n%s", i, err, w.Log())
		}
	}
	if err := coord.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM coordinator: %v", err)
	}
	if err := coord.Wait(30 * time.Second); err != nil {
		t.Fatalf("coordinator: %v\nlog:\n%s", err, coord.Log())
	}

	got, err := os.ReadFile(outTSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("fleet TSV differs from in-process reference:\nfleet:\n%s\nreference:\n%s",
			got, want.Bytes())
	}
}
