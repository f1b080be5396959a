// Command kgtune grid-searches training hyperparameters for one model on a
// dataset — the "Model Training" stage of the paper's workflow (§3.2),
// mirroring LibKGE's grid-search facility — and writes the best checkpoint.
//
//	kgtune -data data/fb10 -model distmult \
//	       -dims 32,64 -lrs 0.01,0.05 -negs 2,4 -out best.kge
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/kg"
	"repro/internal/kge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgtune:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgtune", flag.ContinueOnError)
	var (
		dataDir = fs.String("data", "", "dataset directory (required)")
		model   = fs.String("model", "distmult", "model to tune")
		epochs  = fs.Int("epochs", 20, "epochs per grid point")
		dims    = fs.String("dims", "32", "comma-separated embedding dimensions")
		lrs     = fs.String("lrs", "0.05", "comma-separated learning rates")
		negs    = fs.String("negs", "4", "comma-separated negative-sample counts")
		losses  = fs.String("losses", "", "comma-separated losses (margin, logistic); empty = model default")
		l2s     = fs.String("l2s", "0", "comma-separated L2 coefficients")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("out", "", "write the best checkpoint here (optional)")
		quiet   = fs.Bool("quiet", false, "suppress per-point progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}

	ds, err := kg.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s\n", ds.Metadata())

	space := harness.TuneSpace{}
	if space.Dims, err = parseInts(*dims); err != nil {
		return fmt.Errorf("-dims: %w", err)
	}
	if space.LearningRates, err = parseFloats(*lrs); err != nil {
		return fmt.Errorf("-lrs: %w", err)
	}
	if space.NegSamples, err = parseInts(*negs); err != nil {
		return fmt.Errorf("-negs: %w", err)
	}
	if *losses != "" {
		space.Losses = strings.Split(*losses, ",")
	}
	if space.L2s, err = parseFloats(*l2s); err != nil {
		return fmt.Errorf("-l2s: %w", err)
	}

	var log *os.File
	if !*quiet {
		log = os.Stderr
	}
	results, best, err := harness.GridSearch(context.Background(), *model, ds, space, *epochs, *seed, log)
	if err != nil {
		return err
	}

	sort.Slice(results, func(i, j int) bool { return results[i].ValidMRR > results[j].ValidMRR })
	fmt.Printf("\n%d grid points, best first:\n", len(results))
	for i, r := range results {
		if i == 10 {
			fmt.Printf("... and %d more\n", len(results)-10)
			break
		}
		fmt.Printf("  %-50s valid MRR %.4f\n", r.Describe(), r.ValidMRR)
	}

	if *out != "" && best != nil {
		if err := kge.SaveFlatFile(best, *out); err != nil {
			return err
		}
		fmt.Printf("wrote best checkpoint to %s\n", *out)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
