// Command kgtrain trains a knowledge graph embedding model on a TSV dataset
// directory (train.txt / valid.txt / test.txt) and writes a checkpoint.
//
//	kgtrain -data data/fb10 -model transe -dim 64 -epochs 50 -out transe.kge
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prof"
	"repro/internal/train"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgtrain:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgtrain", flag.ContinueOnError)
	var (
		dataDir    = fs.String("data", "", "dataset directory (required)")
		model      = fs.String("model", "transe", "model: transe, distmult, complex, rescal, hole, conve")
		dim        = fs.Int("dim", 64, "embedding dimension")
		epochs     = fs.Int("epochs", 50, "training epochs")
		batch      = fs.Int("batch", 256, "batch size")
		negs       = fs.Int("negs", 4, "negative samples per positive")
		lr         = fs.Float64("lr", 0.05, "learning rate")
		optName    = fs.String("opt", "adam", "optimizer: adam, adagrad, sgd")
		lossName   = fs.String("loss", "", "loss: margin, logistic (default per model)")
		l2         = fs.Float64("l2", 0, "L2 regularization on touched rows")
		bernoulli  = fs.Bool("bernoulli", false, "Bernoulli negative sampling (Wang et al. 2014)")
		kvsall     = fs.Bool("kvsall", false, "KvsAll (1-N) training instead of negative sampling")
		smoothing  = fs.Float64("label_smoothing", 0.1, "KvsAll label smoothing")
		seed       = fs.Int64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "gradient-computation goroutines (0 = GOMAXPROCS); any value yields bit-identical checkpoints")
		out        = fs.String("out", "model.kge", "checkpoint output path")
		format     = fs.String("format", "gob", "checkpoint format: gob or flat (mmap-able, served zero-copy)")
		patience   = fs.Int("patience", 0, "early-stopping patience in evals (0 = off)")
		evalEach   = fs.Int("eval_every", 5, "epochs between validation evaluations")
		quiet      = fs.Bool("quiet", false, "suppress per-epoch progress")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if *format != "gob" && *format != "flat" {
		return fmt.Errorf("unknown -format %q (want gob or flat)", *format)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "kgtrain:", perr)
		}
	}()

	ds, err := kg.LoadDataset(*dataDir, *dataDir)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s\n", ds.Metadata())

	m, err := kge.New(*model, kge.Config{
		NumEntities:  ds.Train.Entities.Len(),
		NumRelations: ds.Train.Relations.Len(),
		Dim:          *dim,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}

	opt, err := train.OptimizerByName(*optName, float32(*lr))
	if err != nil {
		return err
	}
	var loss train.Loss
	if *lossName != "" {
		if loss, err = train.LossByName(*lossName); err != nil {
			return err
		}
	}

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	cfg := train.Config{
		Epochs:             *epochs,
		BatchSize:          *batch,
		NegSamples:         *negs,
		Loss:               loss,
		Optimizer:          opt,
		L2:                 float32(*l2),
		Workers:            effWorkers,
		Seed:               *seed,
		EvalEvery:          *evalEach,
		Patience:           *patience,
		BernoulliNegatives: *bernoulli,
	}
	fmt.Printf("training %s with %d workers (seed %d)\n", *model, effWorkers, *seed)
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	filter := ds.All()
	if *patience > 0 {
		cfg.Validate = func(m kge.Model) float64 {
			res := eval.Evaluate(eval.NewRanker(m, filter), ds.Valid, eval.Options{MaxTriples: 500})
			return res.MRR
		}
	}

	var hist train.History
	if *kvsall {
		hist, err = train.RunKvsAll(context.Background(), m, ds, cfg, float32(*smoothing))
	} else {
		hist, err = train.Run(context.Background(), m, ds, cfg)
	}
	if err != nil {
		return err
	}
	if hist.Stopped {
		fmt.Printf("early stopping after %d epochs (best validation %.4f)\n", len(hist.Epochs), hist.Best)
	}
	var totalExamples int
	var totalTrain time.Duration
	for _, e := range hist.Epochs {
		totalExamples += e.Examples
		totalTrain += e.Duration
	}
	if totalTrain > 0 {
		unit := "triples"
		if *kvsall {
			unit = "contexts"
		}
		fmt.Printf("trained %d epochs, %d examples in %s (%.0f %s/s)\n",
			len(hist.Epochs), totalExamples, totalTrain.Round(time.Millisecond),
			float64(totalExamples)/totalTrain.Seconds(), unit)
	}

	res := eval.Evaluate(eval.NewRanker(m, filter), ds.Test, eval.Options{})
	fmt.Printf("test MRR %.4f  MR %.1f  Hits@1 %.3f  Hits@3 %.3f  Hits@10 %.3f\n",
		res.MRR, res.MeanRank, res.Hits[1], res.Hits[3], res.Hits[10])

	switch *format {
	case "gob":
		err = kge.SaveFile(m, *out)
	case "flat":
		err = kge.SaveFlatFile(m, *out)
	default:
		return fmt.Errorf("unknown -format %q (want gob or flat)", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s checkpoint %s (sha256 %s)\n", *format, *out, kge.Fingerprint(m))
	return nil
}
