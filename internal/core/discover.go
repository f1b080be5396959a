package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
	"repro/internal/sample"
)

// Options.PruneMode values; only bench/kgbench sets them (see PruneMode).
const (
	PruneOff    = "off"
	PruneExact  = "exact"
	PruneApprox = "approx"
)

// MaxIterations bounds the generation loop per relation: the constant from
// Algorithm 1.
const MaxIterations = 5

// MaxCandidatesCeiling is the most candidates a server or fleet request may ask for.
const MaxCandidatesCeiling = 1 << 20

// Options parameterizes DiscoverFacts (Algorithm 1's inputs).
type Options struct {
	// TopN is the maximum rank (against object-side corruptions) a
	// candidate may have to be returned as a fact. Zero means 500, the
	// value the paper settles on in §4.3; a negative value is refused.
	TopN int
	// MaxCandidates is the maximum number of fact candidates generated per
	// relation. Zero means 500 (§4.3); a negative value is refused.
	MaxCandidates int
	// Relations restricts discovery to these relations; nil means every
	// relation present in the graph (Algorithm 1 line 3).
	Relations []kg.RelationID
	// RankFiltered selects the filtered ranking protocol when computing
	// candidate ranks (existing triples are skipped as corruptions).
	RankFiltered bool
	// Seed drives candidate sampling.
	Seed int64
	// Workers bounds ranking parallelism; zero means GOMAXPROCS.
	Workers int
	// CacheWeights computes the strategy's graph statistic once per sweep
	// rather than once per relation, departing from Algorithm 1's
	// per-relation recomputation. Off by default (faithful mode); see the
	// weight-caching ablation.
	CacheWeights bool
	// PruneMode selects the pruned-ranking ablation, which only bench/kgbench
	// runs: "" or PruneOff is the dense sweep; PruneExact ranks through
	// PruneIndex with sound bounds, byte-identical to the dense path;
	// PruneApprox probes ⌈cells/8⌉ cells per query, trading recall for speed.
	// ROADMAP.md's "Delete internal/prune" item removes it.
	PruneMode string
	// PruneIndex is the prune.Build index both pruned modes require.
	PruneIndex *prune.Index
	// OnRelationDone, when non-nil, is invoked synchronously after each
	// relation's sweep completes (including relations that produced no
	// candidates), from the relation loop's goroutine. The durable-job
	// subsystem (internal/jobs) journals each relation through it and
	// kgdiscover prints progress lines from it. The RelationDone.Facts slice
	// aliases internal buffers and is only valid during the callback; copy
	// it if it must outlive the call.
	OnRelationDone func(RelationDone)
}

// WithOutputDefaults returns o with the zero-valued output-affecting fields
// (TopN, MaxCandidates) replaced by their defaults. It is the one spelling of
// those values: DiscoverFacts applies it, and internal/jobs, internal/fleet
// and the server call it before hashing options or keying a cache, so a
// journal, a fleet worker or a cache entry identifies a run the same way
// whether or not the caller spelled the defaults out.
func (o Options) WithOutputDefaults() Options {
	if o.TopN == 0 {
		o.TopN = 500
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 500
	}
	return o
}

func (o *Options) setDefaults() {
	*o = o.WithOutputDefaults()
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Fact is one discovered fact with its rank against corruptions.
type Fact struct {
	Triple kg.Triple
	Rank   int
}

// Stats instruments a discovery run. The paper's three evaluation
// dimensions are derived from it: runtime (Figure 2), MRR over fact ranks
// (Figure 4), and efficiency = facts per hour (Figure 6).
type Stats struct {
	// WeightTime is the time spent computing strategy weights, the graph
	// statistic included.
	WeightTime time.Duration
	// GenerateTime is the time spent sampling and building mesh grids.
	GenerateTime time.Duration
	// RankTime is the time spent ranking candidates against corruptions.
	RankTime time.Duration
	// Total is the end-to-end wall time of DiscoverFacts.
	Total time.Duration
	// Generated counts candidate triples ranked (after dedup/seen filter).
	Generated int
	// Relations counts relations iterated.
	Relations int
	// Iterations counts generation-loop iterations across all relations.
	Iterations int
	// ScoreSweeps counts the query rows scored while ranking: one per
	// distinct (s, r) candidate group, versus one per candidate under the
	// per-candidate protocol. Generated − ScoreSweeps is the number of |E|·d
	// sweeps the grouping saved; kgdiscover reports it as sweeps-saved.
	ScoreSweeps int
	// BatchedSweeps counts relation-blocked batch dispatches: each is one
	// tiled matrix–matrix sweep (kge.ScoreAllObjectsBatch) covering a block
	// of a relation's (s, r) groups. Zero under pruned ranking.
	BatchedSweeps int
	// BatchRows counts the (s, r) query rows scored through those batches;
	// BatchRows/BatchedSweeps is the achieved amortization factor (average
	// rows per entity-matrix pass).
	BatchRows int
	// CellsPruned counts IVF cells the pruned ranking path discarded by
	// their score bound without visiting their members; it and PrescreenRows
	// stay zero outside bench/kgbench's pruned runs. Over cells visited plus
	// CellsPruned, it is the share of the entity table skipped outright.
	CellsPruned int
	// PrescreenRows counts entity rows the pruned path evaluated with the
	// int8 filter instead of (or before) the exact float kernels.
	PrescreenRows int
	// PerRelation records each swept relation's timings and counters in
	// sweep order. It is what the durable-job journal persists per relation
	// and what progress reporting renders.
	PerRelation []RelationStats
}

// RelationStats is the per-relation slice of Stats: one relation's share of
// the weight/generate/rank time plus its candidate and fact counts. The tags
// are the journal and fleet wire encoding (internal/jobs.RelationRecord):
// durations as integer nanoseconds, and omitempty on the counters that came
// after the first journals — records from before relation-blocked ranking or
// pruning, and runs that do not use them, stay byte-stable and decode as the
// zeros those runs measured. Relation and Facts travel in the enclosing
// record. A new counter is a field here and a line in Stats.Add.
type RelationStats struct {
	Relation      kg.RelationID `json:"-"`
	WeightTime    time.Duration `json:"weight_ns"`
	GenerateTime  time.Duration `json:"generate_ns"`
	RankTime      time.Duration `json:"rank_ns"`
	Generated     int           `json:"generated"`
	Iterations    int           `json:"iterations"`
	ScoreSweeps   int           `json:"score_sweeps"`
	BatchedSweeps int           `json:"batched_sweeps,omitempty"`
	BatchRows     int           `json:"batch_rows,omitempty"`
	CellsPruned   int           `json:"cells_pruned,omitempty"`
	PrescreenRows int           `json:"prescreen_rows,omitempty"`
	Facts         int           `json:"-"`
}

// Add folds one swept relation into the run's totals and PerRelation.
func (s *Stats) Add(rel RelationStats) {
	s.Relations++
	s.WeightTime += rel.WeightTime
	s.GenerateTime += rel.GenerateTime
	s.RankTime += rel.RankTime
	s.Generated += rel.Generated
	s.Iterations += rel.Iterations
	s.ScoreSweeps += rel.ScoreSweeps
	s.BatchedSweeps += rel.BatchedSweeps
	s.BatchRows += rel.BatchRows
	s.CellsPruned += rel.CellsPruned
	s.PrescreenRows += rel.PrescreenRows
	s.PerRelation = append(s.PerRelation, rel)
}

// RelationDone is the payload of Options.OnRelationDone: one completed
// relation's discovered facts (already rank-filtered, in generation order)
// and its stats.
type RelationDone struct {
	Relation kg.RelationID
	Facts    []Fact
	Stats    RelationStats
}

// FactsPerHour returns the discovery efficiency measure from §3.3:
// discovered facts divided by total runtime, in facts per hour.
func (s Stats) FactsPerHour(numFacts int) float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(numFacts) / s.Total.Hours()
}

// Result is the output of DiscoverFacts: the facts, their ranks (parallel
// to Facts, as in Algorithm 1's two outputs), and run statistics.
type Result struct {
	Facts []Fact
	Stats Stats
}

// Ranks returns the ranks of all discovered facts, the input to the MRR
// quality metric.
func (r *Result) Ranks() []int {
	ranks := make([]int, len(r.Facts))
	for i, f := range r.Facts {
		ranks[i] = f.Rank
	}
	return ranks
}

// MRR returns the mean reciprocal rank of the discovered facts (Equation 7).
func (r *Result) MRR() float64 { return eval.Aggregate(r.Ranks(), nil).MRR }

// DiscoverFacts is Algorithm 1. For each relation r in g it computes
// strategy weights for subject and object candidates (line 7), repeatedly
// samples ⌊√max_candidates⌋+10 entities per side and crosses them into a
// mesh grid of candidate triples (lines 8–13, at most MaxIterations
// iterations), filters out triples already in g (line 12), ranks the
// remaining candidates against their object-side corruptions with the model
// (line 14), and returns those ranked within TopN (line 15).
//
// The model must have been trained on g; the ranks returned follow the
// standard evaluation protocol (see internal/eval).
func DiscoverFacts(ctx context.Context, model kge.Model, g *kg.Graph, strategy Strategy, opts Options) (*Result, error) {
	opts.setDefaults()
	if err := checkLimits(opts.TopN, opts.MaxCandidates); err != nil {
		return nil, err
	}
	if err := kge.CheckCovers(model, g); err != nil {
		return nil, err
	}
	switch opts.PruneMode {
	case "", PruneOff:
		opts.PruneIndex = nil
	case PruneExact, PruneApprox:
		if opts.PruneIndex == nil {
			return nil, fmt.Errorf("core: prune mode %q needs a PruneIndex", opts.PruneMode)
		}
		if opts.PruneIndex.Geometry() != model.SweepGeometry() ||
			opts.PruneIndex.NumEntities() != model.NumEntities() {
			return nil, fmt.Errorf("core: prune index does not match the model's sweep geometry")
		}
	default:
		return nil, fmt.Errorf("core: unknown prune mode %q (want %q, %q, or %q)",
			opts.PruneMode, PruneOff, PruneExact, PruneApprox)
	}
	// Line 4: the mesh grid of k subjects × k objects reaches
	// max_candidates when k ≈ √max_candidates; +10 covers the candidates
	// lost to dedup and the seen-filter.
	sampleSize := int(math.Sqrt(float64(opts.MaxCandidates))) + 10
	// Line 7's graph statistic: recomputed for every relation, or kept from
	// the first relation under CacheWeights.
	var stat []float64

	return sweepRelations(ctx, model, g, opts, func(r kg.RelationID, rel *RelationStats) ([]kg.Triple, error) {
		wStart := time.Now()
		if stat == nil || !opts.CacheWeights {
			stat = strategy.Statistic(g)
		}
		subs, sw, objs, ow := strategy.Weights(g, r, stat)
		rel.WeightTime = time.Since(wStart)
		if len(subs) == 0 || len(objs) == 0 {
			return nil, nil
		}
		// Each relation draws from its own RNG stream, seeded by (Seed, r):
		// a relation's candidates do not depend on which other relations the
		// sweep covers or in what order, so a run split across several
		// Relations subsets (the durable-job resume path) generates exactly
		// the candidates of one uninterrupted run.
		rng := rand.New(rand.NewSource(relationSeed(opts.Seed, r)))
		gStart := time.Now()
		candidates, iters := generateCandidates(g, opts, r, subs, sw, objs, ow, sampleSize, rng)
		rel.GenerateTime = time.Since(gStart)
		rel.Iterations = iters
		return candidates, nil
	})
}

// sweepRelations is the relation loop both discovery paths share (Algorithm 1
// lines 3, 14 and 15): for each relation it takes gen's candidates, ranks
// them against their object-side corruptions, keeps those within TopN,
// records the relation's stats and reports it to OnRelationDone. gen owns
// candidate generation (lines 7–13) and records its own time and counters in
// rel; an error from gen ends the sweep. The candidates are only read until
// gen is called again. opts must be defaulted and checked.
func sweepRelations(ctx context.Context, model kge.Model, g *kg.Graph, opts Options,
	gen func(r kg.RelationID, rel *RelationStats) ([]kg.Triple, error)) (*Result, error) {
	start := time.Now()
	res := &Result{}
	relations := opts.Relations
	if relations == nil {
		relations = g.RelationIDs()
	}
	var filter *kg.Graph
	if opts.RankFiltered {
		filter = g
	}
	ranker := eval.NewRanker(model, filter)

	for _, r := range relations {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		factStart := len(res.Facts)
		rel := RelationStats{Relation: r}
		candidates, err := gen(r, &rel)
		if err != nil {
			return nil, err
		}
		rel.Generated = len(candidates)

		if len(candidates) > 0 {
			rStart := time.Now()
			ranks, err := rankAll(ctx, ranker, candidates, opts, &rel)
			rel.RankTime = time.Since(rStart)
			if err != nil {
				return nil, err
			}
			// Line 15: keep candidates within the quality threshold.
			for i, t := range candidates {
				if ranks[i] <= opts.TopN {
					res.Facts = append(res.Facts, Fact{Triple: t, Rank: ranks[i]})
				}
			}
		}

		rel.Facts = len(res.Facts) - factStart
		res.Stats.Add(rel)
		if opts.OnRelationDone != nil {
			opts.OnRelationDone(RelationDone{Relation: r, Facts: res.Facts[factStart:], Stats: rel})
		}
	}

	SortFactsByRank(res.Facts)
	res.Stats.Total = time.Since(start)
	return res, nil
}

// checkLimits refuses a negative TopN or MaxCandidates, which would keep no
// fact or generate no candidate without saying so.
func checkLimits(topN, maxCandidates int) error {
	if topN < 0 || maxCandidates < 0 {
		return fmt.Errorf("core: top_n and max_candidates must be non-negative, got %d/%d", topN, maxCandidates)
	}
	return nil
}

// relationSeed derives the RNG seed for one relation's generation loop from
// the run seed, mixing both through splitmix64 so nearby (seed, relation)
// pairs land on unrelated streams.
func relationSeed(seed int64, r kg.RelationID) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(uint32(r)) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// SortFactsByRank orders facts best-rank-first, breaking ties by triple for
// deterministic output. It is the canonical output order of DiscoverFacts;
// internal/jobs re-sorts merged (journaled + freshly swept) facts with it so
// a resumed run renders byte-identically to an uninterrupted one.
func SortFactsByRank(facts []Fact) {
	slices.SortFunc(facts, func(a, b Fact) int {
		if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Triple.R, b.Triple.R); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Triple.S, b.Triple.S); c != 0 {
			return c
		}
		return cmp.Compare(a.Triple.O, b.Triple.O)
	})
}

// generateCandidates runs the generation loop (Algorithm 1 lines 8–13) for
// one relation and returns the deduplicated unseen candidates plus the
// number of iterations used.
func generateCandidates(g *kg.Graph, opts Options, r kg.RelationID,
	subs []kg.EntityID, sw []float64, objs []kg.EntityID, ow []float64,
	sampleSize int, rng *rand.Rand) ([]kg.Triple, int) {

	subSampler, err := sample.NewAlias(sw)
	if err != nil {
		return nil, 0
	}
	objSampler, err := sample.NewAlias(ow)
	if err != nil {
		return nil, 0
	}

	seen := make(map[kg.Triple]struct{})
	var candidates []kg.Triple
	iters := 0
	for len(candidates) < opts.MaxCandidates && iters < MaxIterations {
		iters++
		sIdx := sample.DistinctDraws(subSampler, rng, sampleSize)
		oIdx := sample.DistinctDraws(objSampler, rng, sampleSize)
		// Line 11: mesh grid of sampled subjects × objects.
		for _, si := range sIdx {
			s := subs[si]
			for _, oi := range oIdx {
				o := objs[oi]
				t := kg.Triple{S: s, R: r, O: o}
				if _, dup := seen[t]; dup {
					continue
				}
				seen[t] = struct{}{}
				// Line 12: filter out triples already in the KG.
				if g.Contains(t) {
					continue
				}
				candidates = append(candidates, t)
				if len(candidates) >= opts.MaxCandidates {
					return candidates, iters
				}
			}
		}
	}
	return candidates, iters
}

// rankAll ranks candidates through eval's scheduler, preserving order, and
// returns each candidate's rank. The work done is added to
// rel: ScoreSweeps (one per distinct (s, r) group), then either BatchedSweeps
// and BatchRows (one tiled matrix–matrix pass per relation block, and the
// query rows they carried) or, under pruned ranking — where a block is a run
// of branch-and-bound top-M searches, not a sweep — CellsPruned and
// PrescreenRows. A cancelled ctx returns ctx.Err() and no ranks.
func rankAll(ctx context.Context, ranker *eval.Ranker, candidates []kg.Triple, opts Options, rel *RelationStats) ([]int, error) {
	var block func(kg.RelationID, []eval.Group) [][]int
	pruneOn := opts.PruneIndex != nil
	if pruneOn {
		cfg := eval.PruneConfig{Index: opts.PruneIndex, Exact: opts.PruneMode == PruneExact}
		var mu sync.Mutex // blocks are ranked concurrently
		block = func(r kg.RelationID, groups []eval.Group) [][]int {
			rs, st := ranker.RankObjectsPruned(r, groups, opts.TopN, cfg)
			mu.Lock()
			rel.CellsPruned += st.CellsPruned
			rel.PrescreenRows += st.PrescreenRows
			mu.Unlock()
			return rs
		}
	}
	ranks, groups, blocks, err := ranker.RankTriples(ctx, candidates, opts.Workers, block)
	rel.ScoreSweeps += groups
	if !pruneOn {
		rel.BatchedSweeps += blocks
		rel.BatchRows += groups
	}
	return ranks, err
}
