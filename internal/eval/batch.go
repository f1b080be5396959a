package eval

import (
	"math"
	"slices"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Group is one (subject, relation) candidate group inside a relation block:
// the relation is shared by the whole block, so only the subject and its
// candidate objects are carried per group (on Evaluate's subject side, the
// fixed object and its candidate subjects).
type Group struct {
	S       kg.EntityID
	Objects []kg.EntityID
}

// batchBufs is the pooled working set of one ranking call. data backs the
// k×|E| score matrix (k = 1 for RankObject and RankObjects); the small
// scratch slices back the counting pass (rankRow) and are sized by the
// largest group; its bucket tables and chunk buffers are fixed-size arrays.
//
// data only grows. RankTriples packs at most max(1,
// DefaultBatchBudgetBytes/(4·|E|)) rows into a block, and RankObject,
// RankObjects and the pruned path's fallbacks rank one row, one group or one
// such block, so a pooled matrix holds at most max(DefaultBatchBudgetBytes,
// 4·|E|) bytes; sync.Pool drops idle working sets across garbage collections.
type batchBufs struct {
	data    []float32
	mat     vecmath.Matrix // matrix()'s header over data
	ss      []kg.EntityID  // the block's subjects
	vals    []float32
	eq      []int
	between []int
	greater []int
	keys    [rankChunk]uint16      // one chunk's bucket keys
	pend    [rankChunk]float32     // one chunk's scores keyed with a target
	low     [rankBuckets + 3]int32 // low[b]: distinct targets keyed below b
	hist    [rankBuckets + 2]int32 // hist[b]: scores keyed b
	held    [rankBuckets + 2]uint8 // held[b]: 1 if a target is keyed b, else 0
}

func (b *batchBufs) matrix(rows, cols int) *vecmath.Matrix {
	need := rows * cols
	if cap(b.data) < need {
		b.data = make([]float32, need)
	}
	b.mat = vecmath.Matrix{Rows: rows, Cols: cols, Data: b.data[:need]}
	return &b.mat
}

func (b *batchBufs) scratch(k int) {
	if cap(b.vals) < k {
		b.vals = make([]float32, k)
		b.eq = make([]int, k)
		b.greater = make([]int, k)
		b.between = make([]int, k+1)
	}
}

// RankObjectsBatch ranks every group of a relation block from one shared
// score matrix: the block's subjects are scored by a single
// kge.ScoreAllObjectsBatch call (a tiled matrix–matrix sweep for every
// model kge.New builds), then each group's ranks are read off its
// row by rankRow. It is exactly equivalent to per-candidate RankObject: the
// sweep is bit-identical to ScoreAllObjects, and the counting pass returns
// what RankObject's |E| probes would. ranks[g][i] is the rank of
// groups[g].Objects[i].
func (r *Ranker) RankObjectsBatch(rel kg.RelationID, groups []Group) [][]int {
	return r.rankBlock(rel, groups, kge.ScoreAllObjectsBatch, func(s kg.EntityID) []kg.EntityID { return r.filter.ObjectsOf(s, rel) })
}

// subjectBlocks returns the block ranker of Evaluate's subject side, which
// RankTriples calls on swapped, the triples with subject and object
// exchanged: one ScoreAllSubjectsBatch per block, then rankRow per (o, r)
// group. The filtered protocol's known subjects of swapped's (r, o) pairs are
// collected here, by one walk of each of their relations' index in the
// filter graph; filteredRank does not depend on their order.
func (r *Ranker) subjectBlocks(swapped []kg.Triple) func(kg.RelationID, []Group) [][]int {
	known := map[kg.RelationID]map[kg.EntityID][]kg.EntityID{}
	if r.filter != nil {
		for _, t := range swapped {
			if known[t.R] == nil {
				known[t.R] = map[kg.EntityID][]kg.EntityID{}
			}
			known[t.R][t.S] = nil
		}
		for rel, byObject := range known {
			subs, rows, objs := r.filter.Pairs(rel)
			for i, s := range subs {
				for _, o := range objs[rows[i]:rows[i+1]] {
					if ss, ok := byObject[o]; ok {
						byObject[o] = append(ss, s)
					}
				}
			}
		}
	}
	return func(rel kg.RelationID, groups []Group) [][]int {
		return r.rankBlock(rel, groups, kge.ScoreAllSubjectsBatch, func(o kg.EntityID) []kg.EntityID { return known[rel][o] })
	}
}

// rankBlock ranks a relation block off one sweep call into the pooled score
// matrix and returns the groups' ranks: known(g.S) lists a group's true
// candidates, read under the filtered protocol only.
func (r *Ranker) rankBlock(rel kg.RelationID, groups []Group,
	sweep func(kge.Model, []kg.EntityID, kg.RelationID, *vecmath.Matrix), known func(kg.EntityID) []kg.EntityID,
) [][]int {
	ranks := make([][]int, len(groups))
	if len(groups) == 0 {
		return ranks
	}
	n := r.model.NumEntities()

	bufs := r.getBatchBufs()
	defer r.batchPool.Put(bufs)

	ss := bufs.ss[:0]
	maxK := 0
	for _, g := range groups {
		ss = append(ss, g.S)
		maxK = max(maxK, len(g.Objects))
	}
	bufs.ss = ss
	mat := bufs.matrix(len(groups), n)
	sweep(r.model, ss, rel, mat)
	bufs.scratch(maxK)

	for gi, g := range groups {
		var filtered []kg.EntityID
		if r.filter != nil {
			filtered = known(g.S)
		}
		ranks[gi] = r.rankRow(mat.Row(gi), g.Objects, filtered, bufs)
	}
	return ranks
}

// getBatchBufs takes a working set from the pool, or starts an empty one.
func (r *Ranker) getBatchBufs() *batchBufs {
	if bufs, _ := r.batchPool.Get().(*batchBufs); bufs != nil {
		return bufs
	}
	return &batchBufs{}
}

// rankBuckets is the number of in-range bucket keys of the counting pass: a
// few dozen times the typical group's distinct targets, so most keys hold
// none. rankChunk is how many scores it keys at a time: whole-row buffers
// would add 6·|E| bytes to every pooled batchBufs.
const rankBuckets, rankChunk = 1024, 1024

// lowerBound returns the first i in [lo, hi) with vals[i] >= x, or hi. It
// compares with < only, so it agrees bit-for-bit with the == and > tests
// the ranks are defined by.
func lowerBound(vals []float32, lo, hi int, x float32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vals[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rankRow ranks one group's objects against a completed score sweep — the
// one counting routine behind RankObjects, RankObjectsBatch and the pruned
// path's fallbacks. It returns what RankObject would for each (s, r, oᵢ):
// same mean tie policy, and the filtered protocol applied as a correction
// over filtered, the filter graph's (s, r) adjacency, instead of |E|
// Contains probes.
//
// One or two objects take a branch-free linear pass each. Larger groups
// sort their targets into u distinct values, count each score as equal to
// vals[i] or strictly between vals[i-1] and vals[i], and suffix-sum those
// counts. vecmath.BucketKeys keys scores and targets alike over [vals[0],
// vals[u-1]]; the keys are monotone, so a histogram counts every score whose
// key holds no target, and the few others are set aside without a branch
// for an exact search of their key's targets. A range the keys cannot span
// takes the plain search. DESIGN.md §9 "Count" has the argument.
func (r *Ranker) rankRow(scores []float32, objects, filtered []kg.EntityID, bufs *batchBufs) []int {
	ranks := make([]int, len(objects))
	if len(objects) == 0 {
		return ranks
	}
	if len(objects) <= 2 {
		for i, o := range objects {
			target := scores[o]
			greater, equal := 0, 0
			// Two independent ifs, not a switch: each compiles to a
			// conditional move, where the switch's branch on a sweep score
			// against the target mispredicts about every other score.
			for _, sc := range scores {
				if sc > target {
					greater++
				}
				if sc == target {
					equal++
				}
			}
			equal-- // the target scored equal to itself
			ranks[i] = filteredRank(scores, o, filtered, greater, equal)
		}
		return ranks
	}

	// Distinct target values, ascending.
	vals := bufs.vals[:0]
	for _, o := range objects {
		vals = append(vals, scores[o])
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	u := len(vals)

	// Classify every sweep score against the distinct targets: eq[i] counts
	// scores equal to vals[i]; between[i] counts scores strictly between
	// vals[i-1] and vals[i] (between[u]: above vals[u-1]).
	eq := bufs.eq[:u]
	between := bufs.between[:u+1]
	clear(eq)
	clear(between)
	v0 := vals[0]
	span := vals[u-1] - v0
	scale := (rankBuckets - 1) / span
	if !(span*scale < rankBuckets) {
		// The keys cannot span the range (span·scale is NaN or +Inf), or a
		// target is NaN. A NaN scale keys everything 0: the plain search.
		scale = float32(math.NaN())
	}
	keys, low, hist, held := bufs.keys[:], &bufs.low, &bufs.hist, &bufs.held
	clear(low[:])
	clear(hist[:])
	clear(held[:])
	for c := 0; c < u; c += rankChunk {
		part := vals[c:min(c+rankChunk, u)]
		vecmath.BucketKeys(keys[:len(part)], part, v0, scale, rankBuckets)
		for _, b := range keys[:len(part)] {
			low[b+1]++
			held[b] = 1
		}
	}
	var below int32
	for b, c := range low {
		below += c
		low[b] = below // targets keyed below b
	}
	for c := 0; c < len(scores); c += rankChunk {
		// Every score is counted under its key and written to pend, but only
		// one whose key holds a target advances n: no branch on the score.
		row := scores[c:min(c+rankChunk, len(scores))]
		vecmath.BucketKeys(keys[:len(row)], row, v0, scale, rankBuckets)
		n := 0
		for i, b := range keys[:len(row)] {
			hist[b]++
			bufs.pend[n] = row[i]
			n += int(held[b])
		}
		pend := bufs.pend[:n]
		vecmath.BucketKeys(keys[:n], pend, v0, scale, rankBuckets)
		for i, sc := range pend {
			j := lowerBound(vals, int(low[keys[i]]), int(low[keys[i]+1]), sc)
			if j < u && vals[j] == sc {
				eq[j]++
			} else {
				between[j]++
			}
		}
	}
	// between[low[b]] += hist[b] for every key that holds no target, summed
	// in a register while low[b] stays the same.
	sum, at := 0, int32(0)
	for b, c := range hist {
		if low[b] != at {
			between[at] += sum
			sum, at = 0, low[b]
		}
		sum += int(c) * int(1-held[b])
	}
	between[at] += sum

	// greater[j] = |{scores strictly above vals[j]}|, by suffix sum.
	greater := bufs.greater[:u]
	acc := between[u]
	for j := u - 1; j >= 0; j-- {
		greater[j] = acc
		acc += eq[j] + between[j]
	}

	for i, o := range objects {
		// The target's index among the distinct values (always present).
		lo := lowerBound(vals, 0, u, scores[o])
		ranks[i] = filteredRank(scores, o, filtered, greater[lo], eq[lo]-1)
	}
	return ranks
}

// filteredRank turns object o's raw counts — corruptions scoring strictly
// greater, and equal not counting o itself — into its rank under the mean
// tie policy, after discounting the filtered corruptions (known true
// triples). The target is never discounted: it is not one of its own
// corruptions.
func filteredRank(scores []float32, o kg.EntityID, filtered []kg.EntityID, greater, equal int) int {
	target := scores[o]
	for _, f := range filtered {
		if f == o {
			continue
		}
		switch fs := scores[f]; {
		case fs > target:
			greater--
		case fs == target:
			equal--
		}
	}
	return 1 + greater + equal/2
}
