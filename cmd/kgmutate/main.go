// Command kgmutate applies batched graph mutations and re-runs discovery
// incrementally: only the relations whose triples, or whose weights under the
// chosen strategy, the batches changed are re-swept, and their fresh records are
// spliced with the baseline checkpoint's untouched ones. The output is
// byte-identical to a from-scratch kgdiscover run on the mutated graph.
//
//	kgdiscover -data data/fb10 -model transe.kge -checkpoint sweep.wal -out before.tsv
//	kgmutate   -data data/fb10 -model transe.kge -baseline sweep.wal \
//	           -batch batch.json -out after.tsv -sweep-out sweep2.wal
//
// The batch file holds one JSON mutation batch, or an array of them:
//
//	{"seq": 1, "source": "ingest", "ops":
//	  [{"op": "add", "s": "e12", "r": "works_for", "o": "e7"},
//	   {"op": "delete", "s": "e3", "r": "works_for", "o": "e9"}]}
//
// The baseline WAL's fingerprint and options hash are verified against the
// model and the pre-mutation graph, so stale or mismatched checkpoints are
// refused instead of spliced. With -log the batches are also appended to a
// durable mutation log (replaying any batches already in it first); with
// -dump-data the mutated dataset is written out in LibKGE layout, preserving
// the entity-row alignment of the trained embeddings; with -sweep-out a
// complete post-mutation checkpoint is written for the next kgmutate round.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/mutate"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgmutate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgmutate", flag.ContinueOnError)
	var (
		dataDir   = fs.String("data", "", "dataset directory (required)")
		modelPath = fs.String("model", "", "model checkpoint (required)")
		baseline  = fs.String("baseline", "", "pre-mutation discovery WAL written by kgdiscover -checkpoint (required)")
		batchPath = fs.String("batch", "", "JSON file with one mutation batch or an array of batches (required)")
		logPath   = fs.String("log", "", "durable mutation log: existing batches replay first, new ones append")
		stratName = fs.String("strategy", "entity_frequency",
			fmt.Sprintf("sampling strategy: %v", core.AllStrategyNames()))
		topN     = fs.Int("top_n", 500, "max rank for a candidate to count as a fact")
		maxCand  = fs.Int("max_candidates", 500, "max candidates generated per relation")
		seed     = fs.Int64("seed", 1, "sampling seed")
		limit    = fs.Int("limit", 50, "print at most this many facts (0 = all)")
		outTSV   = fs.String("out", "", "write all post-mutation facts as TSV to this path (atomic)")
		dumpData = fs.String("dump-data", "", "write the mutated dataset to this directory in LibKGE layout")
		sweepOut = fs.String("sweep-out", "", "write a complete post-mutation checkpoint WAL to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" || *modelPath == "" || *baseline == "" || *batchPath == "" {
		return fmt.Errorf("-data, -model, -baseline, and -batch are required")
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
	strategy, err := core.StrategyByName(*stratName)
	if err != nil {
		return err
	}
	opts := core.Options{
		TopN:          *topN,
		MaxCandidates: *maxCand,
		Seed:          *seed,
	}.WithOutputDefaults()

	batches, err := readBatches(*batchPath)
	if err != nil {
		return err
	}

	// Replay the mutation log (if any) before checking the baseline: the
	// pre-mutation state this run splices against is dataset + logged batches.
	st := mutate.NewState(ds.Train, nil, nil)
	var mlog *mutate.Log
	if *logPath != "" {
		var logged []mutate.Batch
		mlog, logged, err = mutate.OpenLog(*logPath, ds.Name)
		if err != nil {
			return err
		}
		defer mlog.Close()
		if err := st.Replay(logged); err != nil {
			return fmt.Errorf("replaying %s: %w", *logPath, err)
		}
		if len(logged) > 0 {
			fmt.Printf("log: replayed %d batches from %s (seq now %d)\n", len(logged), *logPath, st.Seq())
		}
		st.AttachLog(mlog)
	}

	// Verify the baseline checkpoint against the model and the pre-mutation
	// graph; a complete, matching WAL is the splice source.
	data, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	hdr, prior, _ := jobs.Decode(data)
	relations := ds.Train.RelationIDs()
	if err := jobs.CheckHeader(*baseline, hdr, jobs.Header{
		Fingerprint: kge.Fingerprint(m),
		OptionsHash: jobs.OptionsHash(strategy.Name(), ds.Train, opts, relations),
	}); err != nil {
		return fmt.Errorf("baseline %s: %w", *baseline, err)
	}
	if len(prior) != len(relations) {
		return fmt.Errorf("baseline %s covers %d of %d relations; finish the sweep (kgdiscover -resume) before mutating", *baseline, len(prior), len(relations))
	}

	// Apply the batches; each must extend the sequence.
	applied := make([]mutate.Applied, 0, len(batches))
	adds, dels := 0, 0
	for _, b := range batches {
		ap, err := st.Apply(b)
		if err != nil {
			return fmt.Errorf("batch seq %d: %w", b.Seq, err)
		}
		applied = append(applied, ap)
		adds += ap.Added
		dels += ap.Deleted
	}
	dirty := st.DirtyRelations(*stratName, applied...)
	fmt.Printf("mutate: %d batches (%d adds, %d deletes), %d/%d relations dirty under %s\n",
		len(batches), adds, dels, len(dirty), len(ds.Train.RelationIDs()), *stratName)

	start := time.Now()
	res, recs, err := mutate.IncrementalDiscover(context.Background(), jobs.Spec{
		Model:    m,
		Graph:    ds.Train,
		Strategy: strategy,
		Options:  opts,
	}, prior, dirty)
	if err != nil {
		return err
	}
	fmt.Printf("incremental: reswept %d relations in %s, spliced %d from baseline\n",
		len(dirty), time.Since(start).Round(time.Millisecond), len(recs)-len(dirty))
	fmt.Printf("strategy=%s model=%s facts=%d MRR=%.4f\n",
		strategy.Name(), m.Name(), len(res.Facts), res.MRR())

	if err := jobs.ReportFacts(os.Stdout, ds.Train, res.Facts, *limit, *outTSV); err != nil {
		return err
	}
	if *dumpData != "" {
		if err := kg.SaveLibKGEDataset(ds, *dumpData); err != nil {
			return err
		}
		fmt.Printf("wrote mutated dataset (%d train triples) to %s\n", ds.Train.Len(), *dumpData)
	}
	if *sweepOut != "" {
		// A complete post-mutation checkpoint: header hashed against the
		// mutated graph, every relation's record present, so the next
		// kgmutate round can use it as its -baseline.
		j, err := jobs.Create(*sweepOut, jobs.Header{
			Fingerprint:    kge.Fingerprint(m),
			OptionsHash:    jobs.OptionsHash(strategy.Name(), ds.Train, opts, ds.Train.RelationIDs()),
			Strategy:       strategy.Name(),
			TotalRelations: len(recs),
		})
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote post-mutation checkpoint (%d relations) to %s\n", len(recs), *sweepOut)
	}
	return nil
}

// readBatches decodes the batch file, which holds one batch or an array of
// them, under the rule /mutate holds a request body to: a field a batch or
// an op lacks is refused, as is anything after the first value.
func readBatches(path string) ([]mutate.Batch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	batches := make([]mutate.Batch, 1)
	into := any(&batches[0])
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		into = &batches
	}
	if err := wire.Unmarshal(data, into); err != nil {
		return nil, fmt.Errorf("%s: not a mutation batch or batch array: %w", path, err)
	}
	return batches, nil
}
