// Command kgeval evaluates a trained KGE checkpoint with the standard
// link-prediction protocol (MRR, mean rank, Hits@k) on a dataset's test
// split.
//
//	kgeval -data data/fb10 -model transe.kge -both -filtered
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgeval:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgeval", flag.ContinueOnError)
	var (
		dataDir   = fs.String("data", "", "dataset directory (required)")
		modelPath = fs.String("model", "", "model checkpoint (required)")
		split     = fs.String("split", "test", "split to evaluate: test or valid")
		filtered  = fs.Bool("filtered", true, "filtered protocol (skip known true corruptions)")
		both      = fs.Bool("both", false, "rank both subject and object corruptions")
		limit     = fs.Int("limit", 0, "evaluate at most this many triples (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" || *modelPath == "" {
		return fmt.Errorf("-data and -model are required")
	}

	ds, err := kg.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	m, err := kge.OpenMapped(*modelPath)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := kge.CheckCovers(m, ds.Train); err != nil {
		return err
	}

	var target *kg.Graph
	switch *split {
	case "test":
		target = ds.Test
	case "valid":
		target = ds.Valid
	default:
		return fmt.Errorf("unknown split %q", *split)
	}

	var filter *kg.Graph
	if *filtered {
		filter = ds.All()
	}
	res := eval.Evaluate(eval.NewRanker(m, filter), target, eval.Options{
		BothSides:  *both,
		MaxTriples: *limit,
	})
	protocol := "raw"
	if *filtered {
		protocol = "filtered"
	}
	fmt.Printf("model=%s split=%s protocol=%s n=%d\n", m.Name(), *split, protocol, res.N)
	fmt.Printf("MRR      %.4f\n", res.MRR)
	fmt.Printf("MeanRank %.1f\n", res.MeanRank)
	for _, k := range []int{1, 3, 10} {
		fmt.Printf("Hits@%-2d  %.4f\n", k, res.Hits[k])
	}
	return nil
}
