// Long-tail discovery — the paper's §6 lesson: every popularity-aware
// strategy "extracts facts from the densely-populated areas of a KG …
// leaving out long-tail entities where the need for discovering new facts
// is higher."
//
// This example makes that observation measurable and then addresses it with
// the extension strategies (INVERSE DEGREE, MIXED EXPLORATION): it hides a
// fraction of facts, runs discovery with each strategy, and reports hidden-
// fact recall split into head (popular) and tail (rare) entity segments,
// using the hidden-fact recovery protocol from internal/eval.
//
//	go run ./examples/longtail
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)
	full, err := synth.GenerateGraph(synth.Config{
		Name:         "longtail-demo",
		NumEntities:  500,
		NumRelations: 10,
		NumTriples:   6000,
		NumTypes:     6,
		EntityZipf:   1.1, // strong popularity skew: a real head and tail
		RelationZipf: 0.8,
		ClosureProb:  0.2,
		NoiseProb:    0.05,
		Seed:         41,
	})
	if err != nil {
		log.Fatalf("generate: %v", err)
	}

	// Hide 20% of the facts; they are the recovery target.
	visible, hidden := eval.HideFacts(full, 0.20, 13)
	fmt.Printf("graph: %d facts visible, %d hidden as ground truth\n", visible.Len(), hidden.Len())

	// Split the hidden facts into head and tail by the popularity of their
	// least popular endpoint.
	degrees := make([]int64, full.NumEntities())
	for e := range degrees {
		degrees[e] = visible.Degree(kg.EntityID(e))
	}
	sorted := append([]int64(nil), degrees...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	headCut := sorted[len(sorted)/10] // top decile by degree
	isHead := func(t kg.Triple) bool {
		return degrees[t.S] >= headCut && degrees[t.O] >= headCut
	}
	headHidden := kg.NewGraphWithDicts(full.Entities, full.Relations)
	tailHidden := kg.NewGraphWithDicts(full.Entities, full.Relations)
	for _, t := range hidden.Triples() {
		if isHead(t) {
			headHidden.Add(t)
		} else {
			tailHidden.Add(t)
		}
	}
	fmt.Printf("hidden split: %d head facts, %d tail facts (head = both endpoints in top degree decile)\n\n",
		headHidden.Len(), tailHidden.Len())

	model, err := kge.New("distmult", kge.Config{
		NumEntities:  full.Entities.Len(),
		NumRelations: full.Relations.Len(),
		Dim:          48,
		Seed:         1,
	})
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	ds := &kg.Dataset{Name: "longtail", Train: visible,
		Valid: kg.NewGraphWithDicts(full.Entities, full.Relations),
		Test:  kg.NewGraphWithDicts(full.Entities, full.Relations)}
	if _, err := train.Run(context.Background(), model, ds, train.Config{
		Epochs: 60, BatchSize: 128, NegSamples: 6, Seed: 2,
	}); err != nil {
		log.Fatalf("train: %v", err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tfacts\thead recall\ttail recall\ttotal recall")
	fmt.Fprintln(w, "--------\t-----\t-----------\t-----------\t------------")
	for _, name := range []string{"graph_degree", "cluster_triangles", "uniform_random", "inverse_degree", "mixed_exploration"} {
		strategy, err := core.StrategyByName(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.DiscoverFacts(context.Background(), model, visible, strategy, core.Options{
			TopN:          40,
			MaxCandidates: 300,
			Seed:          7,
		})
		if err != nil {
			log.Fatalf("discover %s: %v", name, err)
		}
		ranked := make([]eval.RankedFact, len(res.Facts))
		for i, f := range res.Facts {
			ranked[i] = eval.RankedFact{Triple: f.Triple, Rank: f.Rank}
		}
		head := eval.EvaluateDiscovery(ranked, headHidden)
		tail := eval.EvaluateDiscovery(ranked, tailHidden)
		total := eval.EvaluateDiscovery(ranked, hidden)
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\n",
			name, len(res.Facts), head.Recall, tail.Recall, total.Recall)
	}
	w.Flush()
	fmt.Println("\nPopularity-aware strategies recover mostly head facts. Pure exploration")
	fmt.Println("(inverse_degree) samples the tail but recovers little — tail entities are")
	fmt.Println("undertrained, so the model cannot rank them into top_n. The ε-greedy blend")
	fmt.Println("keeps head recall while nudging tail recall up. This is exactly the open")
	fmt.Println("problem the paper's §6 describes: sampling alone cannot fix what the")
	fmt.Println("embedding never learned.")
}
