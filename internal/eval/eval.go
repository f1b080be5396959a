// Package eval implements the standard link-prediction evaluation protocol
// for knowledge graph embeddings (Bordes et al., 2013): each test triple is
// ranked against its corruptions — every triple obtained by substituting the
// object (and optionally the subject) with every other entity — and the
// ranks are aggregated into MRR, mean rank, and Hits@k. Both the raw and the
// filtered settings are supported; in the filtered setting corruptions that
// are themselves true triples (of train ∪ valid ∪ test) are skipped.
//
// A candidate's rank in the fact discovery algorithm (internal/core) is the
// same primitive, and both go through one scheduler: Ranker.RankTriples
// (schedule.go).
package eval

import (
	"context"
	"math"
	"sync"

	"repro/internal/kg"
	"repro/internal/kge"
)

// Ranker ranks triples against their corruptions for a fixed model and
// (optional) filter graph. A nil filter selects the raw protocol. Rankers
// are safe for concurrent use; working sets are pooled, so steady state holds
// one score buffer per concurrent caller.
type Ranker struct {
	model  kge.Model
	filter *kg.Graph
	// batchPool holds *batchBufs (see batch.go): the score rows — one for a
	// single-triple rank, a relation block's matrix for RankObjectsBatch — and
	// the counting pass's scratch.
	batchPool sync.Pool
	// prunePool holds *prune.Searcher working sets for RankObjectsPruned
	// (see pruned.go); searchers are pinned to one index, so entries built
	// for a stale index are dropped rather than reused.
	prunePool sync.Pool
}

// NewRanker returns a Ranker over model. filter may be nil (raw protocol);
// concurrent ranking calls only query it.
func NewRanker(model kge.Model, filter *kg.Graph) *Ranker {
	return &Ranker{model: model, filter: filter}
}

// RankObject returns the rank of t among its object-side corruptions
// (s, r, o') for all entities o'. Rank 1 is best. Ties are resolved by the
// "mean" policy: rank = 1 + |{o' : f(o') > f(o)}| + ⌊|{o' ≠ o : f(o') = f(o)}| / 2⌋,
// which avoids both optimistic and pessimistic bias. In the filtered
// setting, corruptions present in the filter graph are skipped.
func (r *Ranker) RankObject(t kg.Triple) int {
	bufs := r.getBatchBufs()
	defer r.batchPool.Put(bufs)
	scores := r.model.ScoreAllObjects(t.S, t.R, bufs.matrix(1, r.model.NumEntities()).Data)
	target := scores[t.O]
	greater, equal := 0, 0
	for o, sc := range scores {
		if kg.EntityID(o) == t.O {
			continue
		}
		if r.filter != nil && r.filter.Contains(kg.Triple{S: t.S, R: t.R, O: kg.EntityID(o)}) {
			continue
		}
		switch {
		case sc > target:
			greater++
		case sc == target:
			equal++
		}
	}
	return 1 + greater + equal/2
}

// RankObjects ranks many object-side candidates that share a (s, r) pair,
// returning ranks parallel to objects: a one-group RankObjectsBatch. It is
// exactly equivalent to calling RankObject on each (s, r, oᵢ) — same mean
// tie policy, same filtered-protocol skips — but runs one model sweep per
// group instead of one per candidate, and one counting pass (rankRow, in
// batch.go) over it instead of |E| Contains probes per candidate:
// O(|E|·d + |E| + k·(log k + |Fₛᵣ|)) per group, versus O(k·|E|·(d + 1)) for
// k per-candidate calls.
func (r *Ranker) RankObjects(s kg.EntityID, rel kg.RelationID, objects []kg.EntityID) []int {
	return r.RankObjectsBatch(rel, []Group{{S: s, Objects: objects}})[0]
}

// Options controls Evaluate.
type Options struct {
	// BothSides additionally ranks subject-side corruptions (the full
	// Bordes protocol); default ranks objects only, matching the paper's
	// §2.1 description and the discovery algorithm's usage.
	BothSides bool
	// MaxTriples, when > 0, evaluates only the first MaxTriples triples —
	// used for fast validation during training.
	MaxTriples int
	// Workers bounds parallelism; zero means GOMAXPROCS.
	Workers int
}

// Result aggregates ranks over an evaluation set.
type Result struct {
	// MRR is the mean reciprocal rank Σ 1/rankᵢ / |Q| (Equation 7).
	MRR float64
	// MeanRank is the arithmetic mean rank.
	MeanRank float64
	// Hits maps k to the fraction of ranks ≤ k.
	Hits map[int]float64
	// N is the number of ranks aggregated.
	N int
}

// evaluateHitsAt is the k of every Hits@k Evaluate reports.
var evaluateHitsAt = []int{1, 3, 10}

// Evaluate ranks every triple of test and aggregates the metrics. Both sides
// go through RankTriples: object-side ranks land at the triple's index and,
// under BothSides, subject-side ranks (the triples with subject and object
// swapped, ranked by subjectBlocks) at len(triples)+index.
func Evaluate(ranker *Ranker, test *kg.Graph, opts Options) Result {
	triples := test.Triples()
	if opts.MaxTriples > 0 && opts.MaxTriples < len(triples) {
		triples = triples[:opts.MaxTriples]
	}
	ctx := context.Background() // never cancelled: the errors below are nil
	ranks, _, _, _ := ranker.RankTriples(ctx, triples, opts.Workers, nil)
	if opts.BothSides {
		swapped := make([]kg.Triple, len(triples))
		for i, t := range triples {
			swapped[i] = kg.Triple{S: t.O, R: t.R, O: t.S}
		}
		subjects, _, _, _ := ranker.RankTriples(ctx, swapped, opts.Workers, ranker.subjectBlocks(swapped))
		ranks = append(ranks, subjects...)
	}
	return Aggregate(ranks, evaluateHitsAt)
}

// Aggregate computes the metrics over a set of ranks.
func Aggregate(ranks []int, hitsAt []int) Result {
	res := Result{Hits: make(map[int]float64), N: len(ranks)}
	if len(ranks) == 0 {
		return res
	}
	var sumRR, sumRank float64
	hitCounts := make(map[int]int)
	for _, rk := range ranks {
		sumRR += 1 / float64(rk)
		sumRank += float64(rk)
		for _, k := range hitsAt {
			if rk <= k {
				hitCounts[k]++
			}
		}
	}
	res.MRR = sumRR / float64(len(ranks))
	res.MeanRank = sumRank / float64(len(ranks))
	for _, k := range hitsAt {
		res.Hits[k] = float64(hitCounts[k]) / float64(len(ranks))
	}
	return res
}

// MRROfRanks is the bare Equation 7 over integer ranks (used to score
// discovered fact sets).
func MRROfRanks(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var sum float64
	for _, rk := range ranks {
		sum += 1 / float64(rk)
	}
	mrr := sum / float64(len(ranks))
	if math.IsNaN(mrr) || math.IsInf(mrr, 0) {
		return 0
	}
	return mrr
}
