package eval

import (
	"sort"

	"repro/internal/kg"
	"repro/internal/prune"
)

// PruneConfig selects the pruned ranking path for a relation block, an
// ablation only bench/kgbench runs (ROADMAP.md: "Delete internal/prune").
type PruneConfig struct {
	// Index is the prebuilt prune.Index over the model's entity table. It
	// must match the Ranker's model (same weights, geometry, and shape) —
	// callers pin it with kge.Fingerprint at build/load time.
	Index *prune.Index
	// Exact selects the exact mode: results are guaranteed identical to the
	// dense path (falling back per group when a bound is inconclusive).
	// Otherwise the approximate mode trades recall for speed: at most
	// ⌈cells/8⌉ cells are visited and the int8 filter drops rows on its raw
	// estimate.
	Exact bool
}

// PruneStats reports what the pruned path did for one relation block.
type PruneStats struct {
	// CellsPruned counts IVF cells discarded by their score bound (or the
	// probe budget) without visiting their members.
	CellsPruned int
	// PrescreenRows counts entity rows evaluated by the int8 filter.
	PrescreenRows int
	// ExactRows counts entity rows scored by the exact float kernels.
	ExactRows int
	// Fallbacks counts groups that fell back to the dense batched sweep —
	// because the top-M frontier would cover the whole entity set, the index
	// did not match, or (exact mode) a target score tied the frontier minimum
	// exactly, where the pruned equal-count would be a lower bound only.
	Fallbacks int
}

func (s *PruneStats) add(o prune.Stats) {
	s.CellsPruned += o.CellsPruned
	s.PrescreenRows += o.PrescreenRows
	s.ExactRows += o.ExactRows
}

// RankObjectsPruned ranks every group of a relation block like
// RankObjectsBatch, but replaces each group's dense O(|E|·d) sweep with a
// branch-and-bound top-M search over cfg.Index (M = topN + |filtered(s, r)|),
// exact-scoring only the shortlist the bounds could not discard.
//
// The contract against the dense path is rank-threshold equivalence at topN.
// With cfg.Exact, for every candidate either:
//
//   - its exact score beats the frontier minimum s_M: the returned rank is
//     identical to RankObjectsBatch's (the top-M multiset is exact and
//     filtered corrections subtract only frontier members), or
//   - its exact score falls below s_M: its true rank provably exceeds topN
//     (at least M frontier scores beat it and filtered corrections remove at
//     most |filtered| of them), and the sentinel rank topN+1 is returned, or
//   - its exact score ties s_M exactly: the tie count is inconclusive and the
//     whole group falls back to RankObjectsBatch.
//
// So a candidate is kept at threshold topN by this path exactly when the
// dense path keeps it, with an identical rank whenever it is kept — which is
// what makes core.PruneExact output byte-identical. Target scores are exact
// (bit-identical to the dense sweep) in both modes, so approximate mode
// misjudges ranks only through the frontier it compares them with. Only
// bench/kgbench reaches this method.
func (r *Ranker) RankObjectsPruned(rel kg.RelationID, groups []Group, topN int, cfg PruneConfig) (ranks [][]int, st PruneStats) {
	// Named returns: the deferred TakeStats below must fold the searcher's
	// counters into the st the caller actually receives.
	ranks = make([][]int, len(groups))
	if len(groups) == 0 {
		return ranks, st
	}

	var sr *prune.Searcher
	if cfg.Index != nil {
		if pooled, _ := r.prunePool.Get().(*prune.Searcher); pooled != nil && pooled.Index() == cfg.Index {
			sr = pooled
		} else if s, err := prune.NewSearcher(cfg.Index, r.model, cfg.Index.Fingerprint()); err == nil {
			sr = s
		}
	}
	if sr == nil {
		// A missing or mismatched index cannot prune; the dense path is
		// always correct.
		st.Fallbacks += len(groups)
		return r.RankObjectsBatch(rel, groups), st
	}
	defer func() {
		st.add(sr.TakeStats())
		r.prunePool.Put(sr)
	}()

	for gi, g := range groups {
		var filtered []kg.EntityID
		if r.filter != nil {
			filtered = r.filter.ObjectsOf(g.S, rel)
		}
		m := topN + len(filtered)

		vals, ok := sr.TopM(g.S, rel, m, !cfg.Exact, 0) // 0 probes ⌈cells/8⌉ in approx mode
		if ok && cfg.Exact {
			// Inconclusive frontier: some target score ties s_M exactly.
			sM := vals[len(vals)-1]
			for _, o := range g.Objects {
				if sr.Score(o) == sM {
					ok = false
					break
				}
			}
		}
		if !ok || len(vals) == 0 {
			ranks[gi] = r.RankObjectsBatch(rel, groups[gi:gi+1])[0]
			st.Fallbacks++
			continue
		}

		sM := vals[len(vals)-1]
		gr := make([]int, len(g.Objects))
		for i, o := range g.Objects {
			t := sr.Score(o)
			if t < sM {
				gr[i] = topN + 1
				continue
			}
			// vals is sorted descending: prefix > t, then the t-ties.
			greater := sort.Search(len(vals), func(j int) bool { return vals[j] <= t })
			geq := sort.Search(len(vals), func(j int) bool { return vals[j] < t })
			equal := geq - greater - 1 // minus the target itself
			for _, f := range filtered {
				if f == o {
					continue
				}
				switch fs := sr.Score(f); {
				case fs > t:
					greater--
				case fs == t:
					equal--
				}
			}
			gr[i] = 1 + greater + equal/2
		}
		ranks[gi] = gr
	}
	return ranks, st
}
