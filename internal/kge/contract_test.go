package kge_test

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
	"repro/internal/synth"
	"repro/internal/train"
)

// TestMinimalContractModel is the conformance test of "a model is params +
// query + adjoint": the toy model of toy_test.go implements QueryModel and
// nothing else, and must train under both objectives and rank through the
// batched and the pruned path, with nothing but kge.Derive between it and
// the trainer and ranker. (Its derived operations are checked against the
// per-triple reference by the package's internal tests, where it is one more
// entry of allModels.)
func TestMinimalContractModel(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "contract", NumEntities: 90, NumRelations: 3, NumTriples: 600,
		NumTypes: 3, EntityZipf: 1.0, RelationZipf: 0.8, ClosureProb: 0.2,
		NoiseProb: 0.05, ValidFrac: 0.05, TestFrac: 0.05, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	newToy := func() *kge.Derived {
		return kge.NewToyModel(kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          8,
			Seed:         3,
		})
	}
	ctx := context.Background()

	for _, kvsAll := range []bool{false, true} {
		m := newToy()
		cfg := train.Config{
			Epochs: 8, BatchSize: 64, NegSamples: 2, Seed: 17, Workers: 2,
			Loss: train.Logistic{},
		}
		var hist train.History
		var err error
		if kvsAll {
			hist, err = train.RunKvsAll(ctx, m, ds, cfg, 0.1)
		} else {
			hist, err = train.Run(ctx, m, ds, cfg)
		}
		if err != nil {
			t.Fatalf("train (kvsall=%v): %v", kvsAll, err)
		}
		first, last := hist.Epochs[0].Loss, hist.Epochs[len(hist.Epochs)-1].Loss
		if !(last < first) {
			t.Errorf("kvsall=%v: loss went %g -> %g", kvsAll, first, last)
		}
	}

	// Ranking: the batched path and the exact pruned path must both agree
	// with the per-group reference.
	m := newToy()
	if _, err := train.Run(ctx, m, ds, train.Config{Epochs: 2, BatchSize: 64, NegSamples: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	ix, err := prune.Build(m, kge.Fingerprint(m), prune.Params{})
	if err != nil {
		t.Fatalf("prune.Build: %v", err)
	}
	const topN = 10
	ranker := eval.NewRanker(m, ds.Train)
	objects := make([]kg.EntityID, 0, 30)
	for o := 0; o < 30; o++ {
		objects = append(objects, kg.EntityID(o*3))
	}
	var groups []eval.Group
	for s := 0; s < 12; s++ {
		groups = append(groups, eval.Group{S: kg.EntityID(7 * s), Objects: objects[s : s+3*(1+s%4)]})
	}
	batched := ranker.RankObjectsBatch(2, groups)
	pruned, st := ranker.RankObjectsPruned(2, groups, topN, eval.PruneConfig{Index: ix, Exact: true})
	if st.Fallbacks == len(groups) {
		t.Errorf("every group fell back to the dense sweep: the pruned path was not exercised")
	}
	for gi, g := range groups {
		grouped := ranker.RankObjects(g.S, 2, g.Objects)
		for i, o := range g.Objects {
			// The per-triple probe loop is the reference: the grouped and
			// batched paths share one counting pass.
			want := ranker.RankObject(kg.Triple{S: g.S, R: 2, O: o})
			if batched[gi][i] != want || grouped[i] != want {
				t.Errorf("group %d object %d: batched rank %d, grouped %d, per-triple %d", gi, i, batched[gi][i], grouped[i], want)
			}
			// Rank-threshold equivalence at topN: identical when kept,
			// beyond the threshold (sentinel or true rank) when not.
			if kept := want <= topN; kept && pruned[gi][i] != want || !kept && pruned[gi][i] <= topN {
				t.Errorf("group %d object %d: pruned rank %d, per-triple %d", gi, i, pruned[gi][i], want)
			}
		}
	}
}
