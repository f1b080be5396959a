package eval

import (
	"slices"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// Group is one (subject, relation) candidate group inside a relation block:
// the relation is shared by the whole block, so only the subject and its
// candidate objects are carried per group.
type Group struct {
	S       kg.EntityID
	Objects []kg.EntityID
}

// batchBufs is the pooled working set of one RankObjectsBatch call. data
// backs the k×|E| score matrix; the small scratch slices back the
// counting-rank pass and are sized by the largest group.
//
// data is grown on demand and released again when it stays oversized: one
// skewed relation block (a single subject hub with thousands of groups) would
// otherwise pin a block-sized buffer in the pool for the rest of the process,
// multiplied per concurrent worker. The policy is hysteretic so steady
// mixed-size workloads do not thrash: only after batchShrinkStreak
// consecutive calls that use less than 1/batchShrinkFactor of the capacity
// (and only above a floor worth reclaiming) is the backing array dropped and
// reallocated at the current need.
type batchBufs struct {
	data      []float32
	smallUses int // consecutive matrix() calls using < cap/batchShrinkFactor
	vals      []float32
	eq        []int
	between   []int
	greater   []int
}

const (
	// batchShrinkFactor is the under-use ratio that counts toward release:
	// a call needing less than cap/4 flags the buffer as oversized.
	batchShrinkFactor = 4
	// batchShrinkStreak is how many consecutive under-used calls trigger the
	// release — one oversized block per streak window is tolerated for free.
	batchShrinkStreak = 8
	// batchShrinkFloor is the capacity (in float32s, 256 KiB) below which the
	// buffer is never released: reclaiming less is churn, not savings.
	batchShrinkFloor = 1 << 16
)

func (b *batchBufs) matrix(rows, cols int) *vecmath.Matrix {
	need := rows * cols
	switch {
	case cap(b.data) < need:
		b.data = make([]float32, need)
		b.smallUses = 0
	case cap(b.data) > batchShrinkFloor && need < cap(b.data)/batchShrinkFactor:
		b.smallUses++
		if b.smallUses >= batchShrinkStreak {
			b.data = make([]float32, need)
			b.smallUses = 0
		}
	default:
		b.smallUses = 0
	}
	return &vecmath.Matrix{Rows: rows, Cols: cols, Data: b.data[:need]}
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
// row. It is exactly equivalent to calling RankObjects per group — same mean
// tie policy, same filtered-protocol corrections — and, because the batched
// sweep is bit-identical to ScoreAllObjects, it returns identical ranks.
//
// Alongside the ranks it returns each candidate's sweep score (parallel to
// ranks), so callers that need the kept facts' scores (the calibrator path
// in internal/core) can reuse the sweep instead of re-scoring per fact.
//
// Per row, ranks are answered by a target-side counting pass instead of the
// full-sweep sort RankObjects uses: the group's k target scores are sorted
// and deduplicated into u ≤ k distinct values, one pass over the |E| sweep
// classifies every score into "equal to vals[i]" or "strictly between
// vals[i-1] and vals[i]" via a u-way binary search, and suffix sums turn the
// class counts into strictly-greater counts per distinct value. That is
// O(|E|·log u) per row against O(|E|·log|E|) for the sort, and it is what
// makes the batched path cheaper even when the score sweep itself is
// compute-bound. Both paths count the same integers, so ranks are identical.
func (r *Ranker) RankObjectsBatch(rel kg.RelationID, groups []Group) ([][]int, [][]float32) {
	ranks := make([][]int, len(groups))
	scores := make([][]float32, len(groups))
	if len(groups) == 0 {
		return ranks, scores
	}
	n := r.model.NumEntities()

	bufs, _ := r.batchPool.Get().(*batchBufs)
	if bufs == nil {
		bufs = &batchBufs{}
	}
	defer r.batchPool.Put(bufs)

	ss := make([]kg.EntityID, len(groups))
	maxK := 0
	for gi, g := range groups {
		ss[gi] = g.S
		if len(g.Objects) > maxK {
			maxK = len(g.Objects)
		}
	}
	mat := bufs.matrix(len(groups), n)
	kge.ScoreAllObjectsBatch(r.model, ss, rel, mat)
	bufs.scratch(maxK)

	for gi, g := range groups {
		row := mat.Row(gi)
		var filtered []kg.EntityID
		if r.filter != nil {
			filtered = r.filter.ObjectsOf(g.S, rel)
		}
		ranks[gi] = r.rankRow(row, g.Objects, filtered, bufs)
		sc := make([]float32, len(g.Objects))
		for i, o := range g.Objects {
			sc[i] = row[o]
		}
		scores[gi] = sc
	}
	return ranks, scores
}

// rankRow ranks one group's objects against a completed score sweep. The
// small-group linear path is the same one RankObjects takes; larger groups
// go through the counting pass.
func (r *Ranker) rankRow(scores []float32, objects, filtered []kg.EntityID, bufs *batchBufs) []int {
	ranks := make([]int, len(objects))
	if len(objects) == 0 {
		return ranks
	}
	if len(objects) <= 4 {
		for i, o := range objects {
			target := scores[o]
			greater, equal := 0, 0
			for _, sc := range scores {
				switch {
				case sc > target:
					greater++
				case sc == target:
					equal++
				}
			}
			equal-- // the target scored equal to itself
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
			ranks[i] = 1 + greater + equal/2
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
	for i := range eq {
		eq[i] = 0
	}
	for i := range between {
		between[i] = 0
	}
	for _, sc := range scores {
		// Lower bound: first i with vals[i] >= sc, comparing with < only so
		// the classification agrees bit-for-bit with the == / > tests below.
		lo, hi := 0, u
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if vals[mid] < sc {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < u && vals[lo] == sc {
			eq[lo]++
		} else {
			between[lo]++
		}
	}

	// greater[j] = |{scores strictly above vals[j]}|, by suffix sum.
	greater := bufs.greater[:u]
	acc := between[u]
	for j := u - 1; j >= 0; j-- {
		greater[j] = acc
		acc += eq[j] + between[j]
	}

	for i, o := range objects {
		target := scores[o]
		// The target's index among the distinct values, by the same lower
		// bound (it is always present).
		lo, hi := 0, u
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if vals[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		g := greater[lo]
		equal := eq[lo] - 1 // minus the target itself
		for _, f := range filtered {
			if f == o {
				continue
			}
			switch fs := scores[f]; {
			case fs > target:
				g--
			case fs == target:
				equal--
			}
		}
		ranks[i] = 1 + g + equal/2
	}
	return ranks
}
