package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
)

// discoverFunc matches core.DiscoverFacts; tests substitute instrumented
// implementations to control timing and count concurrency.
type discoverFunc func(ctx context.Context, model kge.Model, g *kg.Graph, strategy core.Strategy, opts core.Options) (*core.Result, error)

// Spec describes one discovery job: the artifacts, the algorithm options,
// and (optionally) a journal to checkpoint into.
type Spec struct {
	Model    kge.Model
	Graph    *kg.Graph
	Strategy core.Strategy
	Options  core.Options
	// Fingerprint is the model's canonical weight digest (kge.Fingerprint).
	// Required when Journal is set: it is what pins a checkpoint to its
	// weights. Leave empty for journal-less jobs.
	Fingerprint string
	// Journal is the WAL path; empty runs the job without checkpointing.
	Journal string
	// Resume permits continuing an existing journal at Journal. Without it
	// an existing file is an error (ErrCheckpointExists), so a typo'd path
	// cannot silently graft one run onto another.
	Resume bool
	// Label is a free-form description carried into status listings.
	Label string
	// OnProgress, when non-nil, is called after each relation completes
	// (journaled relations recovered during resume do not replay it).
	OnProgress func(Progress)
	// OnRelation, when non-nil, receives each freshly swept relation's wire
	// record (after it has been journaled, for journaled runs). Recovered
	// relations do not replay it. The fleet worker uses it to collect the
	// records a completed unit ships back to its coordinator.
	OnRelation func(RelationRecord)
	// OnFinish, when non-nil, is called exactly once when the job reaches a
	// terminal state (done, failed, or cancelled — including jobs cancelled
	// while still queued). Manager.Close drains the queue, so every accepted
	// job fires it. Callers use it to release resources the job pinned, e.g.
	// the serving layer's refcount on a memory-mapped model.
	OnFinish func(State)
}

// Progress is one per-relation progress tick.
type Progress struct {
	Relation  kg.RelationID
	Done      int // relations complete so far, including recovered ones
	Total     int
	Facts     int // facts this relation kept
	FactsSum  int // facts across the whole job so far
	SweepTime time.Duration
}

// RunInfo reports how a Run executed.
type RunInfo struct {
	// TotalRelations is the size of the job's relation list.
	TotalRelations int
	// Resumed counts relations recovered from the journal instead of swept.
	Resumed int
}

// OptionsHash canonicalizes the inputs that determine a discovery run's
// output — strategy name, thresholds, the (sorted) relation list, protocol
// flags, seed, and the graph's shape — and returns the SHA-256 hex digest of
// their canonical JSON. Options.Workers is excluded deliberately: worker
// count never changes output.
func OptionsHash(strategyName string, g *kg.Graph, opts core.Options, relations []kg.RelationID) string {
	rels := append([]kg.RelationID(nil), relations...)
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	// The prune mode joins the hash only when pruning is enabled, via
	// omitempty: runs with pruning off (including every journal written
	// before the pruned path existed) hash exactly as they always did, so
	// old checkpoints stay resumable. PruneExact is also output-identical to
	// pruning off by construction, but it changes how the output is computed,
	// so it is pinned rather than aliased — resuming a checkpoint under a
	// different ranking path is exactly the kind of drift the hash exists to
	// refuse.
	pruneMode := opts.PruneMode
	if pruneMode == core.PruneOff {
		pruneMode = ""
	}
	canonical := struct {
		Strategy      string          `json:"strategy"`
		TopN          int             `json:"top_n"`
		MaxCandidates int             `json:"max_candidates"`
		MaxIterations int             `json:"max_iterations"`
		Relations     []kg.RelationID `json:"relations"`
		RankFiltered  bool            `json:"rank_filtered"`
		Seed          int64           `json:"seed"`
		CacheWeights  bool            `json:"cache_weights"`
		// has_calibrator and min_probability name a probability cutoff
		// discovery no longer has, filter_len an extra seen-triple graph it
		// no longer takes, max_iterations a bound now fixed by Algorithm 1.
		// They stay, constant, so every journal hashes as it always did.
		HasCalibrator  bool    `json:"has_calibrator"`
		MinProbability float64 `json:"min_probability"`
		FilterLen      int     `json:"filter_len"`
		GraphTriples   int     `json:"graph_triples"`
		GraphEntities  int     `json:"graph_entities"`
		GraphRelations int     `json:"graph_relations"`
		PruneMode      string  `json:"prune_mode,omitempty"`
	}{
		Strategy:       strategyName,
		TopN:           opts.TopN,
		MaxCandidates:  opts.MaxCandidates,
		MaxIterations:  core.MaxIterations,
		Relations:      rels,
		RankFiltered:   opts.RankFiltered,
		Seed:           opts.Seed,
		CacheWeights:   opts.CacheWeights,
		GraphTriples:   g.Len(),
		GraphEntities:  g.NumEntities(),
		GraphRelations: g.NumRelations(),
		PruneMode:      pruneMode,
	}
	b, _ := json.Marshal(canonical)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Run executes one discovery job, journaling per-relation checkpoints when
// spec.Journal is set and resuming from them when spec.Resume permits it.
// The merged result is byte-identical (facts and ranks, in the canonical
// core.SortFactsByRank order) to an uninterrupted core.DiscoverFacts run
// with the same inputs: core seeds each relation's RNG stream independently,
// so already-journaled relations are simply skipped and their recorded facts
// spliced back in.
func Run(ctx context.Context, spec Spec) (*core.Result, RunInfo, error) {
	return run(ctx, spec, core.DiscoverFacts)
}

func run(ctx context.Context, spec Spec, discover discoverFunc) (*core.Result, RunInfo, error) {
	opts := spec.Options.WithOutputDefaults()
	relations := opts.Relations
	if relations == nil {
		relations = spec.Graph.RelationIDs()
	}
	info := RunInfo{TotalRelations: len(relations)}
	if opts.TopN < 0 || opts.MaxCandidates < 0 { // as DiscoverFacts does, but before a journal exists
		return nil, info, fmt.Errorf("jobs: top_n and max_candidates must be non-negative, got %d/%d", opts.TopN, opts.MaxCandidates)
	}

	var (
		journal   *Journal
		recovered []RelationRecord
	)
	remaining := relations
	if spec.Journal != "" {
		if spec.Fingerprint == "" {
			return nil, info, fmt.Errorf("jobs: journaled runs require the model fingerprint")
		}
		hdr := Header{
			Fingerprint:    spec.Fingerprint,
			OptionsHash:    OptionsHash(spec.Strategy.Name(), spec.Graph, opts, relations),
			Strategy:       spec.Strategy.Name(),
			TotalRelations: len(relations),
		}
		var err error
		journal, recovered, remaining, err = Open(spec.Journal, hdr, spec.Resume, relations)
		if err != nil {
			return nil, info, err
		}
		defer journal.Close()
	}
	info.Resumed = len(relations) - len(remaining)

	start := time.Now()
	res := &core.Result{}
	factsSum := 0
	for _, rec := range recovered {
		mergeRecord(res, rec)
		factsSum += len(rec.Facts)
	}

	if len(remaining) > 0 {
		runOpts := opts
		runOpts.Relations = remaining
		doneCount := info.Resumed
		var hookErr error
		runOpts.OnRelationDone = func(d core.RelationDone) {
			var rec RelationRecord
			if journal != nil || spec.OnRelation != nil {
				rec = RecordOf(d)
			}
			if journal != nil && hookErr == nil {
				hookErr = journal.Append(rec)
			}
			if spec.OnRelation != nil {
				spec.OnRelation(rec)
			}
			doneCount++
			factsSum += len(d.Facts)
			if spec.OnProgress != nil {
				spec.OnProgress(Progress{
					Relation:  d.Relation,
					Done:      doneCount,
					Total:     len(relations),
					Facts:     len(d.Facts),
					FactsSum:  factsSum,
					SweepTime: d.Stats.WeightTime + d.Stats.GenerateTime + d.Stats.RankTime,
				})
			}
		}
		swept, err := discover(ctx, spec.Model, spec.Graph, spec.Strategy, runOpts)
		if err != nil {
			return nil, info, err
		}
		if hookErr != nil {
			return nil, info, fmt.Errorf("jobs: journal append: %w", hookErr)
		}
		res.Facts = append(res.Facts, swept.Facts...)
		for _, rel := range swept.Stats.PerRelation {
			res.Stats.Add(rel)
		}
	}

	core.SortFactsByRank(res.Facts)
	res.Stats.Total = time.Since(start)
	return res, info, nil
}

// mergeRecord folds one journaled (or wire-delivered) relation record into
// an accumulating result.
func mergeRecord(res *core.Result, rec RelationRecord) {
	st := rec.Stats
	st.Relation, st.Facts = rec.Relation, len(rec.Facts) // not encoded inside stats
	res.Stats.Add(st)
	res.Facts = append(res.Facts, FactsOf(rec.Facts)...)
}

// MergeRecords splices per-relation records — however they were produced:
// recovered from a journal, or completed by fleet workers in any order and
// any interleaving — into one Result in the canonical output order. Because
// each relation's sweep is a pure function of its inputs (per-relation RNG
// streams) and SortFactsByRank is a total order, the merged result is
// byte-identical to a single uninterrupted DiscoverFacts run over the same
// relations. Stats.Total is left zero; wall-clock belongs to the caller.
func MergeRecords(recs []RelationRecord) *core.Result {
	res := &core.Result{}
	for _, rec := range recs {
		mergeRecord(res, rec)
	}
	core.SortFactsByRank(res.Facts)
	return res
}
