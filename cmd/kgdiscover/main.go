// Command kgdiscover runs the fact discovery algorithm (Algorithm 1 of the
// paper) with a trained checkpoint and a chosen sampling strategy, printing
// the discovered facts with their ranks.
//
//	kgdiscover -data data/fb10 -model transe.kge -strategy cluster_triangles \
//	           -top_n 500 -max_candidates 500 -limit 25
//
// With -checkpoint the sweep journals every completed relation to a WAL, so
// a killed process loses at most the relation it was mid-sweep on; rerunning
// with -resume continues from the last good record and produces output
// byte-identical to an uninterrupted run (per-relation RNG streams make the
// decomposition exact).
//
//	kgdiscover -data data/fb10 -model transe.kge -checkpoint sweep.wal -out facts.tsv
//	# ... SIGKILL ...
//	kgdiscover -data data/fb10 -model transe.kge -checkpoint sweep.wal -resume -out facts.tsv
//
// With -fleet the sweep is routed to a running `kgfleet coord` and executed
// by its workers; the output — ranks, facts, TSV — is byte-identical to
// running the same sweep locally. -checkpoint and -resume then name the
// coordinator's journal. -cpuprofile and -memprofile are refused with
// -fleet: the sweep's work happens in the workers, not in this process.
//
//	kgdiscover -data data/fb10 -model transe.kge -fleet http://127.0.0.1:7070 -out facts.tsv
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prof"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgdiscover:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kgdiscover", flag.ContinueOnError)
	var (
		dataDir   = fs.String("data", "", "dataset directory (required)")
		modelPath = fs.String("model", "", "model checkpoint (required)")
		stratName = fs.String("strategy", "entity_frequency",
			fmt.Sprintf("sampling strategy: %v", core.AllStrategyNames()))
		topN       = fs.Int("top_n", 500, "max rank for a candidate to count as a fact")
		maxCand    = fs.Int("max_candidates", 500, "max candidates generated per relation")
		seed       = fs.Int64("seed", 1, "sampling seed")
		limit      = fs.Int("limit", 50, "print at most this many facts (0 = all)")
		outTSV     = fs.String("out", "", "also write all facts as TSV to this path")
		checkpoint = fs.String("checkpoint", "", "journal each completed relation to this WAL path (crash-resumable)")
		resume     = fs.Bool("resume", false, "continue from an existing -checkpoint journal")
		fleetAddr  = fs.String("fleet", "", "route the sweep to this kgfleet coordinator URL instead of sweeping locally (output stays byte-identical)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" || *modelPath == "" {
		return fmt.Errorf("-data and -model are required")
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *fleetAddr != "" {
		if *cpuProfile != "" || *memProfile != "" {
			return fmt.Errorf("-cpuprofile and -memprofile cannot be used with -fleet: the sweep runs in the kgfleet workers, not in this process")
		}
		return runFleet(*fleetAddr, fleet.SweepRequest{
			Data:       *dataDir,
			Model:      *modelPath,
			Strategy:   *stratName,
			Options:    fleet.SweepOptions{TopN: *topN, MaxCandidates: *maxCand, Seed: *seed},
			Checkpoint: *checkpoint,
			Resume:     *resume,
		}, *limit, *outTSV)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "kgdiscover:", perr)
		}
	}()

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

	spec := jobs.Spec{
		Model:    m,
		Graph:    ds.Train,
		Strategy: strategy,
		Options: core.Options{
			TopN:          *topN,
			MaxCandidates: *maxCand,
			Seed:          *seed,
		},
		Journal: *checkpoint,
		Resume:  *resume,
		OnProgress: func(p jobs.Progress) {
			fmt.Printf("relation %d/%d %s  facts=%d sweep=%s\n",
				p.Done, p.Total, ds.Train.Relations.Name(int32(p.Relation)),
				p.Facts, p.SweepTime.Round(time.Millisecond))
		},
	}
	if *checkpoint != "" {
		// The fingerprint pins the journal to these exact weights; resuming a
		// checkpoint written by a different model or options is refused.
		spec.Fingerprint = kge.Fingerprint(m)
	}
	res, info, err := jobs.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	if *checkpoint != "" {
		fmt.Printf("checkpoint: resumed %d of %d relations (journal %s)\n",
			info.Resumed, info.TotalRelations, *checkpoint)
	}

	st := res.Stats
	fmt.Printf("strategy=%s model=%s facts=%d generated=%d MRR=%.4f\n",
		strategy.Name(), m.Name(), len(res.Facts), st.Generated, res.MRR())
	fmt.Printf("runtime=%s (weights=%s generate=%s rank=%s)  efficiency=%.0f facts/hour\n",
		st.Total.Round(time.Millisecond), st.WeightTime.Round(time.Millisecond),
		st.GenerateTime.Round(time.Millisecond), st.RankTime.Round(time.Millisecond),
		st.FactsPerHour(len(res.Facts)))
	fmt.Printf("ranking: sweeps=%d candidates=%d sweeps-saved=%d (grouped by subject-relation pair)\n",
		st.ScoreSweeps, st.Generated, st.Generated-st.ScoreSweeps)
	if st.BatchedSweeps > 0 {
		fmt.Printf("batching: blocks=%d rows=%d (%.1f groups per entity-matrix pass)\n",
			st.BatchedSweeps, st.BatchRows, float64(st.BatchRows)/float64(st.BatchedSweeps))
	}

	return jobs.ReportFacts(os.Stdout, ds.Train, res.Facts, *limit, *outTSV)
}

// runFleet submits the sweep to a kgfleet coordinator and renders the
// response exactly like a local run: resumed-checkpoint line, summary, top
// facts, TSV. The coordinator and its workers resolve -data and -model on
// their own filesystems and verify them against the pinned fingerprint and
// options hash, so a divergent copy fails loudly instead of sweeping.
func runFleet(base string, req fleet.SweepRequest, limit int, outTSV string) error {
	ds, err := kg.LoadDataset(req.Data, req.Data)
	if err != nil {
		return err
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// No client timeout: the request holds until the fleet finishes the
	// sweep, which for large graphs is minutes. The reply carries every
	// relation's facts, hence the generous read cap.
	var resp fleet.SweepResponse
	if err := wire.Post(context.Background(), http.DefaultClient, strings.TrimSuffix(base, "/")+"/sweep", req, &resp, 1<<30); err != nil {
		return fmt.Errorf("fleet coordinator %s: %w", base, err)
	}

	if req.Checkpoint != "" {
		fmt.Printf("checkpoint: resumed %d of %d relations (journal %s on coordinator)\n",
			resp.Fleet.Resumed, resp.Fleet.TotalRelations, req.Checkpoint)
	}
	fmt.Printf("strategy=%s fingerprint=%.12s facts=%d generated=%d\n",
		req.Strategy, resp.Fingerprint, len(resp.Facts), resp.Generated)
	fmt.Printf("fleet: coordinator=%s units=%d workers=%d reassigned=%d duplicates=%d retried=%d resumed=%d\n",
		base, resp.Fleet.Units, resp.Fleet.Workers, resp.Fleet.Reassigned,
		resp.Fleet.DuplicateRecords, resp.Fleet.RetriedUnits, resp.Fleet.Resumed)
	fmt.Printf("runtime=%s (weights=%s generate=%s rank=%s sweeps=%d)\n",
		time.Duration(resp.RuntimeMS)*time.Millisecond, time.Duration(resp.WeightMS)*time.Millisecond,
		time.Duration(resp.GenerateMS)*time.Millisecond, time.Duration(resp.RankMS)*time.Millisecond,
		resp.ScoreSweeps)

	return jobs.ReportFacts(os.Stdout, ds.Train, jobs.FactsOf(resp.Facts), limit, outTSV)
}
