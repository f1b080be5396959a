package train

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

func TestKvsAllTrainingBeatsRandom(t *testing.T) {
	for _, modelName := range []string{"distmult", "conve"} {
		modelName := modelName
		t.Run(modelName, func(t *testing.T) {
			t.Parallel()
			ds, err := synth.Generate(synth.Tiny())
			if err != nil {
				t.Fatal(err)
			}
			m, err := kge.New(modelName, kge.Config{
				NumEntities:  ds.Train.Entities.Len(),
				NumRelations: ds.Train.Relations.Len(),
				Dim:          16,
				Seed:         1,
			})
			if err != nil {
				t.Fatal(err)
			}
			hist, err := RunKvsAll(context.Background(), m, ds, Config{
				Epochs:       30,
				BatchSize:    32,
				LearningRate: 0.05,
				Seed:         4,
			}, 0.1)
			if err != nil {
				t.Fatalf("RunKvsAll: %v", err)
			}
			if len(hist.Epochs) == 0 {
				t.Fatal("no epochs recorded")
			}
			first, last := hist.Epochs[0].Loss, hist.Epochs[len(hist.Epochs)-1].Loss
			if last >= first {
				t.Errorf("KvsAll loss did not decrease: %.5f -> %.5f", first, last)
			}
			res := eval.Evaluate(eval.NewRanker(m, ds.All()), ds.Test, eval.Options{})
			baseline := harmonicMean(float64(ds.Train.Entities.Len()))
			t.Logf("%s KvsAll: test MRR %.4f (random %.4f)", modelName, res.MRR, baseline)
			if res.MRR < 2*baseline {
				t.Errorf("KvsAll-trained %s MRR %.4f did not beat 2x random %.4f", modelName, res.MRR, baseline)
			}
		})
	}
}

func TestKvsAllRejectsBadInput(t *testing.T) {
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
	if _, err := RunKvsAll(context.Background(), m, ds, Config{Epochs: 1}, 1.5); err == nil {
		t.Error("accepted label smoothing >= 1")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunKvsAll(ctx, m, ds, Config{Epochs: 2}, 0); err == nil {
		t.Error("ignored cancelled context")
	}
}

func TestBuildKvsContextsGroups(t *testing.T) {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	contexts := buildKvsContexts(ds.Train)
	total := 0
	for _, c := range contexts {
		if len(c.objects) == 0 {
			t.Fatal("context with no objects")
		}
		total += len(c.objects)
	}
	if total != ds.Train.Len() {
		t.Errorf("grouped %d objects, want %d triples", total, ds.Train.Len())
	}
	if len(contexts) >= ds.Train.Len() {
		t.Log("every (s,r) context unique — acceptable for a tiny random graph")
	}
}

// TestKvsAllEpochAllocation bounds what one KvsAll epoch allocates when the
// entities far outnumber the contexts: 8 000 entities at Dim 64, 96 contexts
// in one batch of six chunks. The model and Adam's state (two moments and a
// step count per row) are allowed, and two context × entity matrices (the
// stepper keeps one, whose scores become the upstream rows in place), plus
// 1 MiB for the contexts, the buffers' row indexes and the like. A step that
// gave each chunk an entity × Dim gradient would allocate six more models.
// The least of three runs is taken, as a collection can fall inside one.
func TestKvsAllEpochAllocation(t *testing.T) {
	const ents, subjects, rels, dim = 8000, 12, 8, 64
	g := kg.NewGraph()
	for i := 0; i < ents; i++ {
		g.Entities.Intern("e" + strconv.Itoa(i))
	}
	for r := 0; r < rels; r++ {
		g.Relations.Intern("r" + strconv.Itoa(r))
	}
	var ts []kg.Triple
	for s := 0; s < subjects; s++ {
		for r := 0; r < rels; r++ {
			for k := 0; k < 3; k++ {
				ts = append(ts, kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kg.EntityID((s*977 + r*131 + k*4001) % ents)})
			}
		}
	}
	g.AddAll(ts)
	ds := &kg.Dataset{Name: "wide", Train: g, Valid: kg.NewGraph(), Test: kg.NewGraph()}
	contexts := subjects * rels

	least := uint64(math.MaxUint64)
	var model uint64
	for range 3 {
		m, err := kge.New("distmult", kge.Config{NumEntities: ents, NumRelations: rels, Dim: dim, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		model = 0
		for _, p := range m.Params().List() {
			model += 4 * uint64(len(p.M.Data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunKvsAll(context.Background(), m, ds, Config{Epochs: 1, BatchSize: contexts, Workers: 2, Seed: 3}, 0.1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	bound := model + 2*model + 4*ents + 2*uint64(contexts)*ents*4 + 1<<20
	t.Logf("one epoch allocates %d bytes (bound %d; the model is %d)", least, bound, model)
	if least > bound {
		t.Errorf("one KvsAll epoch allocates %d bytes, bound %d: model and Adam state %d, two context × entity matrices %d",
			least, bound, 3*model+4*ents, 2*uint64(contexts)*ents*4)
	}
}
