// Strategy sweep: compare all six sampling strategies (including CLUSTERING
// SQUARES, which the paper excluded from its main experiments for its cost)
// on one dataset and one model, reporting the paper's three metrics —
// runtime, fact quality (MRR) and efficiency (facts/hour).
//
//	go run ./examples/strategysweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

func main() {
	log.SetFlags(0)

	// A mid-sized synthetic dataset: large enough that popularity skew
	// matters, small enough that the squares strategy finishes.
	cfg := synth.Config{
		Name:         "sweep-demo",
		NumEntities:  400,
		NumRelations: 12,
		NumTriples:   4000,
		NumTypes:     6,
		EntityZipf:   1.0,
		RelationZipf: 0.9,
		ClosureProb:  0.25,
		NoiseProb:    0.05,
		ValidFrac:    0.05,
		TestFrac:     0.05,
		Seed:         23,
	}
	ds, err := synth.Generate(cfg)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	fmt.Printf("dataset: %s\n", ds.Metadata())

	model, err := kge.New("transe", kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          32,
		Seed:         1,
	})
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	start := time.Now()
	if _, err := train.Run(context.Background(), model, ds, train.Config{
		Epochs:     30,
		BatchSize:  128,
		NegSamples: 4,
		Seed:       2,
	}); err != nil {
		log.Fatalf("train: %v", err)
	}
	fmt.Printf("trained transe in %s\n\n", time.Since(start).Round(time.Millisecond))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tfacts\tMRR\truntime\tfacts/hour")
	fmt.Fprintln(w, "--------\t-----\t---\t-------\t----------")
	for _, name := range core.StrategyNames() {
		strategy, err := core.StrategyByName(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.DiscoverFacts(context.Background(), model, ds.Train, strategy, core.Options{
			TopN:          50,
			MaxCandidates: 200,
			Seed:          9,
		})
		if err != nil {
			log.Fatalf("discover %s: %v", name, err)
		}
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%s\t%.0f\n",
			name, len(res.Facts), res.MRR(),
			res.Stats.Total.Round(time.Millisecond),
			res.Stats.FactsPerHour(len(res.Facts)))
	}
	w.Flush()
	fmt.Println("\nNote how cluster_squares pays a much larger weight-computation cost —")
	fmt.Println("the reason the paper excluded it after a 54-hour run on FB15K-237.")
}
