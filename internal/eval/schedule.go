package eval

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kg"
)

// DefaultBatchBudgetBytes caps the score-matrix footprint of one relation
// block: a block holds at most DefaultBatchBudgetBytes/(4·|E|) of a
// relation's (s, r) groups, so a worker's batch stays within a fixed memory
// budget regardless of vocabulary size. 4 MiB ≈ 20 query rows over a
// 50k-entity vocabulary, enough to amortize the entity-matrix traffic without
// a block's scores spilling far past the last-level cache share of one worker.
const DefaultBatchBudgetBytes = 4 << 20

// relGroups is one relation's (s, r) groups in first-appearance order:
// idx[g][j] is the input position of the triple behind groups[g].Objects[j].
type relGroups struct {
	rel    kg.RelationID
	groups []Group
	idx    [][]int
}

// RankTriples is the one way from triples to ranks: Evaluate, discovery
// (Algorithm 1 line 14) and the exhaustive baseline all rank through it. It
// returns, parallel to triples, each triple's rank among its object-side
// corruptions (subject-side, for Evaluate's swapped triples and
// subjectBlocks), plus the number of (s, r) groups and of relation blocks the
// work was packed into.
//
// Group: triples are bucketed by (s, r), so a mesh grid of k subjects × k
// objects costs k sweeps, not k². Block: each relation's groups, in
// first-appearance order, are packed into blocks of at most
// DefaultBatchBudgetBytes/(4·|E|) rows, tightened to ⌈groups/workers⌉ so there
// are at least as many blocks as workers — smaller blocks only cost
// amortization, idle workers cost wall-clock. Sweep and count: rankBlock
// ranks one block (nil means r.RankObjectsBatch, one tiled matrix–matrix
// sweep and a counting pass per row); it is called from up to workers
// goroutines (≤ 0 means GOMAXPROCS). Scatter: blocks own disjoint input
// positions, so ranks land without a lock.
//
// When ctx is cancelled the partially-written ranks are meaningless — rank 0
// would pass every TopN filter — so the error is ctx.Err() and ranks is nil.
func (r *Ranker) RankTriples(ctx context.Context, triples []kg.Triple, workers int,
	rankBlock func(rel kg.RelationID, groups []Group) [][]int,
) (ranks []int, groups, blocks int, err error) {
	if rankBlock == nil {
		rankBlock = r.RankObjectsBatch
	}
	type srKey struct {
		s kg.EntityID
		r kg.RelationID
	}
	type slot struct{ rel, group int }
	byKey := make(map[srKey]slot, len(triples))
	byRel := make(map[kg.RelationID]int)
	var rels []relGroups
	for i, t := range triples {
		k := srKey{t.S, t.R}
		at, ok := byKey[k]
		if !ok {
			ri, seen := byRel[t.R]
			if !seen {
				ri = len(rels)
				byRel[t.R] = ri
				rels = append(rels, relGroups{rel: t.R})
			}
			at = slot{ri, len(rels[ri].groups)}
			byKey[k] = at
			rels[ri].groups = append(rels[ri].groups, Group{S: t.S})
			rels[ri].idx = append(rels[ri].idx, nil)
			groups++
		}
		rg := &rels[at.rel]
		rg.groups[at.group].Objects = append(rg.groups[at.group].Objects, t.O)
		rg.idx[at.group] = append(rg.idx[at.group], i)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, groups))
	rows := DefaultBatchBudgetBytes / (4 * r.model.NumEntities())
	rows = max(1, min(rows, (groups+workers-1)/workers))
	type block struct {
		rg     *relGroups
		lo, hi int
	}
	var work []block
	for ri := range rels {
		rg := &rels[ri]
		for lo := 0; lo < len(rg.groups); lo += rows {
			work = append(work, block{rg, lo, min(lo+rows, len(rg.groups))})
		}
	}

	ranks = make([]int, len(triples))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, len(work)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := int(next.Add(1)) - 1; bi < len(work) && ctx.Err() == nil; bi = int(next.Add(1)) - 1 {
				b := work[bi]
				rs := rankBlock(b.rg.rel, b.rg.groups[b.lo:b.hi])
				for gi, idx := range b.rg.idx[b.lo:b.hi] {
					for j, i := range idx {
						ranks[i] = rs[gi][j]
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, groups, len(work), err
	}
	return ranks, groups, len(work), nil
}
