// Package eval implements the standard link-prediction evaluation protocol
// for knowledge graph embeddings (Bordes et al., 2013): each test triple is
// ranked against its corruptions — every triple obtained by substituting the
// object (and optionally the subject) with every other entity — and the
// ranks are aggregated into MRR, mean rank, and Hits@k. Both the raw and the
// filtered settings are supported; in the filtered setting corruptions that
// are themselves true triples (of train ∪ valid ∪ test) are skipped.
//
// The same per-triple ranking primitive is what the fact discovery algorithm
// (internal/core) uses to decide whether a candidate passes the top_n
// quality threshold.
package eval

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/kg"
	"repro/internal/kge"
)

// Ranker ranks triples against their corruptions for a fixed model and
// (optional) filter graph. A nil filter selects the raw protocol. Rankers
// are safe for concurrent use; per-call sweep buffers are pooled, so steady
// state holds one |E|-score buffer per concurrent caller.
type Ranker struct {
	model  kge.Model
	filter *kg.Graph
	pool   sync.Pool
	// batchPool holds *batchBufs: RankObjectsBatch's score matrices and the
	// counting pass's scratch (see batch.go). The matrices are sized per
	// relation block, so it is separate from the fixed-size sweep pool above.
	batchPool sync.Pool
	// prunePool holds *prune.Searcher working sets for RankObjectsPruned
	// (see pruned.go); searchers are pinned to one index, so entries built
	// for a stale index are dropped rather than reused.
	prunePool sync.Pool
}

// sweepBufs is the per-call working set of a single-query sweep.
type sweepBufs struct {
	scores []float32
}

// NewRanker returns a Ranker over model. filter may be nil (raw protocol).
func NewRanker(model kge.Model, filter *kg.Graph) *Ranker {
	r := &Ranker{model: model, filter: filter}
	n := model.NumEntities()
	r.pool.New = func() any {
		return &sweepBufs{scores: make([]float32, n)}
	}
	if filter != nil {
		// Force the filter's lazy (s, r) adjacency now so concurrent
		// RankObjects calls only read it.
		filter.BuildIndexes()
	}
	return r
}

// Model returns the model being ranked against.
func (r *Ranker) Model() kge.Model { return r.model }

// RankObject returns the rank of t among its object-side corruptions
// (s, r, o') for all entities o'. Rank 1 is best. Ties are resolved by the
// "mean" policy: rank = 1 + |{o' : f(o') > f(o)}| + ⌊|{o' ≠ o : f(o') = f(o)}| / 2⌋,
// which avoids both optimistic and pessimistic bias. In the filtered
// setting, corruptions present in the filter graph are skipped.
func (r *Ranker) RankObject(t kg.Triple) int {
	bufs := r.pool.Get().(*sweepBufs)
	defer r.pool.Put(bufs)
	scores := r.model.ScoreAllObjects(t.S, t.R, bufs.scores)
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

// RankSubject mirrors RankObject for subject-side corruptions (s', r, o).
func (r *Ranker) RankSubject(t kg.Triple) int {
	bufs := r.pool.Get().(*sweepBufs)
	defer r.pool.Put(bufs)
	scores := r.model.ScoreAllSubjects(t.R, t.O, bufs.scores)
	target := scores[t.S]
	greater, equal := 0, 0
	for s, sc := range scores {
		if kg.EntityID(s) == t.S {
			continue
		}
		if r.filter != nil && r.filter.Contains(kg.Triple{S: kg.EntityID(s), R: t.R, O: t.O}) {
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

// RankObjects ranks many object-side candidates that share a (s, r) pair
// from one ScoreAllObjects sweep, returning ranks parallel to objects. It is
// exactly equivalent to calling RankObject on each (s, r, oᵢ) — same mean
// tie policy, same filtered-protocol skips — but runs one model sweep per
// group instead of one per candidate, and one counting pass (rankRow, in
// batch.go) over it instead of |E| Contains probes per candidate:
// O(|E|·d + |E| + k·(log k + |Fₛᵣ|)) per group, versus O(k·|E|·(d + 1)) for
// k per-candidate calls.
func (r *Ranker) RankObjects(s kg.EntityID, rel kg.RelationID, objects []kg.EntityID) []int {
	if len(objects) == 0 {
		return []int{}
	}
	sweep := r.pool.Get().(*sweepBufs)
	defer r.pool.Put(sweep)
	scores := r.model.ScoreAllObjects(s, rel, sweep.scores)

	var filtered []kg.EntityID
	if r.filter != nil {
		filtered = r.filter.ObjectsOf(s, rel)
	}
	bufs := r.getBatchBufs()
	defer r.batchPool.Put(bufs)
	bufs.scratch(len(objects))
	return r.rankRow(scores, objects, filtered, bufs)
}

// Options controls Evaluate.
type Options struct {
	// BothSides additionally ranks subject-side corruptions (the full
	// Bordes protocol); default ranks objects only, matching the paper's
	// §2.1 description and the discovery algorithm's usage.
	BothSides bool
	// HitsAt lists the k values for Hits@k; nil means {1, 3, 10}.
	HitsAt []int
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

// Evaluate ranks every triple of test and aggregates the metrics.
func Evaluate(ranker *Ranker, test *kg.Graph, opts Options) Result {
	triples := test.Triples()
	if opts.MaxTriples > 0 && opts.MaxTriples < len(triples) {
		triples = triples[:opts.MaxTriples]
	}
	hitsAt := opts.HitsAt
	if hitsAt == nil {
		hitsAt = []int{1, 3, 10}
	}
	// Object-side queries are grouped by (s, r): every triple of a group is
	// ranked from one shared score sweep. Subject-side ranks (BothSides)
	// remain per-triple. The rank slice is preallocated at its known final
	// size — object ranks land at the triple's index, subject ranks at
	// len(triples)+index — so no append/channel funnel is needed.
	type srKey struct {
		s kg.EntityID
		r kg.RelationID
	}
	type srGroup struct {
		s   kg.EntityID
		r   kg.RelationID
		idx []int
	}
	byKey := make(map[srKey]int, len(triples))
	var groups []*srGroup
	for i, t := range triples {
		k := srKey{t.S, t.R}
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, &srGroup{s: t.S, r: t.R})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}

	total := len(triples)
	if opts.BothSides {
		total *= 2
	}
	ranks := make([]int, total)

	groupCh := make(chan *srGroup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var objects []kg.EntityID
			for g := range groupCh {
				objects = objects[:0]
				for _, i := range g.idx {
					objects = append(objects, triples[i].O)
				}
				rs := ranker.RankObjects(g.s, g.r, objects)
				for j, i := range g.idx {
					ranks[i] = rs[j]
				}
				if opts.BothSides {
					for _, i := range g.idx {
						ranks[len(triples)+i] = ranker.RankSubject(triples[i])
					}
				}
			}
		}()
	}
	for _, g := range groups {
		groupCh <- g
	}
	close(groupCh)
	wg.Wait()
	return Aggregate(ranks, hitsAt)
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
