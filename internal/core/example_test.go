package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// trained trains a fresh model of the given kind on ds.
func trained(ds *kg.Dataset, name string, dim int, cfg train.Config) kge.Model {
	model, err := kge.New(name, kge.Config{
		NumEntities: ds.Train.Entities.Len(), NumRelations: ds.Train.Relations.Len(), Dim: dim, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	if _, err := train.Run(context.Background(), model, ds, cfg); err != nil {
		panic(err)
	}
	return model
}

// The whole pipeline on the tiny synthetic preset: train DistMult, check it
// with link prediction, then discover facts with ENTITY FREQUENCY. Discovery
// needs no queries and no test split: it samples candidates per relation and
// keeps those the model ranks within TopN against their corruptions.
func ExampleDiscoverFacts() {
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		panic(err)
	}
	fmt.Println("dataset:", ds.Metadata())
	model := trained(ds, "distmult", 32, train.Config{Epochs: 40, BatchSize: 64, NegSamples: 4, Seed: 7})
	lp := eval.Evaluate(eval.NewRanker(model, ds.All()), ds.Test, eval.Options{})
	fmt.Printf("link prediction: MRR %.4f, Hits@10 %.3f\n", lp.MRR, lp.Hits[10])

	res, err := core.DiscoverFacts(context.Background(), model, ds.Train, core.NewEntityFrequency(), core.Options{
		TopN: 25, MaxCandidates: 100, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("discovered %d facts among %d candidates (MRR %.4f); the best five:\n",
		len(res.Facts), res.Stats.Generated, res.MRR())
	for _, f := range res.Facts[:5] {
		fmt.Printf("  rank %d  %s\n", f.Rank, ds.Train.FormatTriple(f.Triple))
	}
	// Output:
	// dataset: tiny: train=540 valid=30 test=30 entities=80 relations=6
	// link prediction: MRR 0.1702, Hits@10 0.367
	// discovered 281 facts among 600 candidates (MRR 0.1044); the best five:
	//   rank 1  (e68, r5, e70)
	//   rank 2  (e21, r4, e22)
	//   rank 2  (e72, r5, e26)
	//   rank 2  (e75, r5, e12)
	//   rank 2  (e79, r5, e23)
}

// Exhaustive discovery against sampling on a 250-entity graph, the paper's
// scale argument (§1) in small. The exhaustive baseline (CHAI, the paper's
// reference [6]) scores every triple of the complement, |E|²·|R| − |G|;
// CHAI's rules prune that set before inference, and sampling scores a
// small slice of it. Every sampled fact is an exhaustive fact with the same
// rank, because the rank depends only on the triple. On YAGO3-10 the
// complement holds 123 182² · 37 ≈ 5.6·10¹¹ triples.
func ExampleExhaustiveDiscover() {
	ds, err := synth.Generate(synth.Config{
		Name: "exhaustive-demo", NumEntities: 250, NumRelations: 6, NumTriples: 2500, NumTypes: 5,
		EntityZipf: 1.0, RelationZipf: 0.8, ClosureProb: 0.2, NoiseProb: 0.05,
		ValidFrac: 0.05, TestFrac: 0.05, Seed: 51,
	})
	if err != nil {
		panic(err)
	}
	g := ds.Train
	model := trained(ds, "transe", 32, train.Config{Epochs: 30, BatchSize: 128, Seed: 2})
	ctx := context.Background()

	all, stats, err := core.ExhaustiveDiscover(ctx, model, g, core.ExhaustiveOptions{TopN: 30})
	if err != nil {
		panic(err)
	}
	fmt.Printf("complement of %d facts over %d entities and %d relations: %d triples\n",
		g.Len(), g.NumEntities(), g.NumRelations(), stats.ComplementSize)
	fmt.Printf("exhaustive:         %6d scored, %5d facts\n", stats.Generated, len(all.Facts))

	ruled, rstats, err := core.ExhaustiveDiscover(ctx, model, g, core.ExhaustiveOptions{TopN: 30, Rules: true})
	if err != nil {
		panic(err)
	}
	fmt.Printf("exhaustive + rules: %6d scored, %5d facts (%d pruned)\n", rstats.Generated, len(ruled.Facts), rstats.Pruned)

	sampled, err := core.DiscoverFacts(ctx, model, g, core.NewEntityFrequency(), core.Options{TopN: 30, MaxCandidates: 500, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sampling:           %6d scored, %5d facts\n", sampled.Stats.Generated, len(sampled.Facts))

	rank := make(map[kg.Triple]int, len(all.Facts))
	for _, f := range all.Facts {
		rank[f.Triple] = f.Rank
	}
	same := 0
	for _, f := range sampled.Facts {
		if r, ok := rank[f.Triple]; ok && r == f.Rank {
			same++
		}
	}
	fmt.Printf("sampling scored %.2f%% of the complement; %d of its %d facts are exhaustive facts with the same rank\n",
		100*float64(sampled.Stats.Generated)/float64(stats.Generated), same, len(sampled.Facts))
	// Output:
	// complement of 2250 facts over 250 entities and 6 relations: 372750 triples
	// exhaustive:         372750 scored, 43282 facts
	// exhaustive + rules:  60382 scored, 13620 facts (312368 pruned)
	// sampling:             3000 scored,  1135 facts
	// sampling scored 0.80% of the complement; 1135 of its 1135 facts are exhaustive facts with the same rank
}
