package train

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// trainTinyModel trains the given model type briefly on the tiny synthetic
// dataset and returns the test MRR alongside the random-guessing baseline.
func trainTinyModel(t *testing.T, modelName string) (mrr, baseline float64) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate tiny dataset: %v", err)
	}
	m, err := kge.New(modelName, kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new %s: %v", modelName, err)
	}
	_, err = Run(context.Background(), m, ds, Config{
		Epochs:     30,
		BatchSize:  64,
		NegSamples: 4,
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("train %s: %v", modelName, err)
	}
	ranker := eval.NewRanker(m, ds.All())
	res := eval.Evaluate(ranker, ds.Test, eval.Options{})
	// Random guessing over N entities has expected MRR ≈ ln(N)/N.
	n := float64(ds.Train.Entities.Len())
	return res.MRR, harmonicMean(n)
}

func harmonicMean(n float64) float64 {
	var h float64
	for i := 1.0; i <= n; i++ {
		h += 1 / i
	}
	return h / n
}

func TestTrainingBeatsRandomBaseline(t *testing.T) {
	for _, model := range []string{"transe", "distmult", "complex", "rescal", "hole", "conve"} {
		model := model
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			mrr, baseline := trainTinyModel(t, model)
			t.Logf("%s: test MRR %.4f (random baseline %.4f)", model, mrr, baseline)
			if mrr < 2*baseline {
				t.Errorf("%s: MRR %.4f did not beat 2x random baseline %.4f", model, mrr, baseline)
			}
		})
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          16,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	hist, err := Run(context.Background(), m, ds, Config{Epochs: 20, BatchSize: 64, Seed: 9})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	first := hist.Epochs[0].Loss
	last := hist.Epochs[len(hist.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss did not decrease: first %.5f, last %.5f", first, last)
	}
}

func TestTrainingEarlyStopping(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	hist, err := Run(context.Background(), m, ds, Config{
		Epochs:    100,
		BatchSize: 64,
		Seed:      3,
		EvalEvery: 1,
		Patience:  2,
		// A metric that never improves forces stopping after Patience evals.
		Validate: func(kge.Model) float64 { calls++; return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hist.Stopped {
		t.Error("early stopping did not trigger")
	}
	if len(hist.Epochs) >= 100 {
		t.Errorf("trained all %d epochs despite a flat metric", len(hist.Epochs))
	}
	if calls < 2 {
		t.Errorf("Validate called %d times, want >= 2", calls)
	}
}

func TestTrainingRestoresBestParams(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Metric peaks at the 2nd evaluation then collapses: the returned model
	// must carry the epoch-2 parameters, which we fingerprint via a score.
	var peakScore float32
	calls := 0
	probe := ds.Train.Triples()[0]
	_, err = Run(context.Background(), m, ds, Config{
		Epochs:    6,
		BatchSize: 64,
		Seed:      3,
		EvalEvery: 1,
		Validate: func(model kge.Model) float64 {
			calls++
			if calls == 2 {
				peakScore = model.Score(probe)
				return 1.0
			}
			return 0.1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(probe) != peakScore {
		t.Errorf("best parameters not restored: score %g, want %g", m.Score(probe), peakScore)
	}
}

func TestTrainingEmptyGraphErrors(t *testing.T) {
	ds := &kg.Dataset{Name: "empty", Train: kg.NewGraph(), Valid: kg.NewGraph(), Test: kg.NewGraph()}
	m, err := kge.New("distmult", kge.Config{NumEntities: 2, NumRelations: 1, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), m, ds, Config{Epochs: 1}); err == nil {
		t.Fatal("expected error for empty training graph")
	}
}

// TestNegsampleBatchAllocations: a warm negative-sampling step allocates a
// fixed count whatever the batch size — no gradient row, forward context
// (ConvE's per-candidate subject side included) or chunk generator per
// example.
func TestNegsampleBatchAllocations(t *testing.T) {
	ds := tinyDataset(t)
	sampler := &NegativeSampler{NumEntities: ds.Train.Entities.Len()}
	for _, name := range []string{"distmult", "conve"} {
		allocs := func(n int) float64 {
			m := determinismModel(t, name, ds)
			cfg := Config{Workers: 1}
			cfg.setDefaults(m)
			st := newStepper(m, cfg)
			step := func() { runBatch(st, ds.Train.Triples()[:n], sampler, 7) }
			for range 3 {
				step()
			}
			return testing.AllocsPerRun(20, step)
		}
		small, large := allocs(32), allocs(256)
		t.Logf("%s: %v allocations per step at 32 positives, %v at 256", name, small, large)
		if large > small {
			t.Errorf("%s: a step allocates %v times at 256 positives, %v at 32", name, large, small)
		}
	}
}

// TestTrainingOneEntityErrors: with one entity no corruption differs from its
// positive, so negative sampling must refuse the model rather than draw
// forever; KvsAll needs no corruptions and trains it.
func TestTrainingOneEntityErrors(t *testing.T) {
	g := kg.NewGraph()
	a, r := g.Entities.Intern("a"), g.Relations.Intern("r")
	g.Add(kg.Triple{S: kg.EntityID(a), R: kg.RelationID(r), O: kg.EntityID(a)})
	ds := &kg.Dataset{Name: "one", Train: g, Valid: kg.NewGraph(), Test: kg.NewGraph()}
	m, err := kge.New("distmult", kge.Config{NumEntities: 1, NumRelations: 1, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), m, ds, Config{Epochs: 1}); err == nil {
		t.Fatal("negative sampling accepted a model with one entity")
	}
	if _, err := RunKvsAll(context.Background(), m, ds, Config{Epochs: 1}, 0); err != nil {
		t.Fatalf("KvsAll on one entity: %v", err)
	}
}

func TestTrainingContextCancelled(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          8,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, m, ds, Config{Epochs: 5}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestTrainingDeterministicSingleWorker(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	score := func() float32 {
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          8,
			Seed:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), m, ds, Config{
			Epochs: 3, BatchSize: 64, Seed: 21, Workers: 1,
		}); err != nil {
			t.Fatal(err)
		}
		return m.Score(ds.Train.Triples()[0])
	}
	if a, b := score(), score(); a != b {
		t.Errorf("single-worker training not deterministic: %g vs %g", a, b)
	}
}

// TestTrainingRejectsBadConfig: both entry points refuse a negative count
// (which would otherwise panic on a slice bound or a makeslice) before
// touching the parameters.
func TestTrainingRejectsBadConfig(t *testing.T) {
	ds := tinyDataset(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Epochs", Config{Epochs: -1}},
		{"BatchSize", Config{BatchSize: -5}},
		{"NegSamples", Config{NegSamples: -1}},
		{"EvalEvery", Config{EvalEvery: -2}},
		{"Patience", Config{Patience: -1}},
	} {
		for _, kvsAll := range []bool{false, true} {
			m := determinismModel(t, "distmult", ds)
			before := kge.Fingerprint(m)
			var err error
			if kvsAll {
				_, err = RunKvsAll(context.Background(), m, ds, tc.cfg, 0.1)
			} else {
				_, err = Run(context.Background(), m, ds, tc.cfg)
			}
			if err == nil {
				t.Errorf("%s (kvsall=%v): accepted", tc.name, kvsAll)
			}
			if kge.Fingerprint(m) != before {
				t.Errorf("%s (kvsall=%v): parameters changed before the refusal", tc.name, kvsAll)
			}
		}
	}
}
