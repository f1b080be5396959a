package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/kg"
)

// TestRankAllCancelledReturnsError is the regression test for the
// cancellation bug: rankAll used to bail out of its workers on a cancelled
// context and silently return the zero-initialized ranks slice, and rank-0
// candidates pass every `rank <= TopN` filter, so DiscoverFacts fabricated
// Rank-0 "facts". A cancelled ranking stage must surface ctx.Err() instead.
func TestRankAllCancelledReturnsError(t *testing.T) {
	ds, m := tinyTrained(t)
	ranker := eval.NewRanker(m, nil)
	candidates := make([]kg.Triple, 0, 64)
	n := kg.EntityID(ds.Train.NumEntities())
	for s := kg.EntityID(0); s < 8 && s < n; s++ {
		for o := kg.EntityID(0); o < 8 && o < n; o++ {
			candidates = append(candidates, kg.Triple{S: s, R: 0, O: o})
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ranks, err := rankAll(ctx, ranker, candidates, Options{Workers: 2}, &RelationStats{})
	if err == nil {
		t.Fatal("rankAll on cancelled context returned nil error")
	}
	if ranks != nil {
		t.Fatalf("rankAll on cancelled context returned partial ranks %v", ranks[:4])
	}

	// And DiscoverFacts must propagate the error rather than return facts.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	if res, err := DiscoverFacts(ctx2, m, ds.Train, NewUniformRandom(), Options{}); err == nil {
		for _, f := range res.Facts {
			if f.Rank == 0 {
				t.Fatal("cancelled discovery returned a rank-0 fact")
			}
		}
	}
}

// TestRankAllMatchesPerCandidate asserts the scheduler assigns every
// candidate exactly the rank the per-candidate protocol would, in order.
// Candidates of three relations are interleaved and the per-relation group
// counts (7, 5, 3) do not divide the block size, so block packing across
// relations — full blocks, a short tail block per relation, one block per
// relation under a single worker — is checked against per-triple RankObject,
// which shares no line with the counting pass.
func TestRankAllMatchesPerCandidate(t *testing.T) {
	ds, m := tinyTrained(t)
	n := kg.EntityID(ds.Train.NumEntities())
	var candidates []kg.Triple
	for o := kg.EntityID(0); o < 10; o++ {
		for s := kg.EntityID(0); s < 7; s++ {
			for r := kg.RelationID(0); r < 3; r++ {
				if int(s) < 7-2*int(r) {
					candidates = append(candidates, kg.Triple{S: (s*11 + kg.EntityID(r)) % n, R: r, O: (o*7 + s) % n})
				}
			}
		}
	}
	const groups = 7 + 5 + 3
	for _, filtered := range []bool{false, true} {
		var filter *kg.Graph
		if filtered {
			filter = ds.All()
		}
		ranker := eval.NewRanker(m, filter)
		for _, workers := range []int{1, 3} {
			var rstats RelationStats
			ranks, err := rankAll(context.Background(), ranker, candidates, Options{Workers: workers}, &rstats)
			if err != nil {
				t.Fatal(err)
			}
			if rstats.ScoreSweeps != groups || rstats.BatchRows != groups {
				t.Errorf("filtered=%v workers=%d: sweeps = %d, batch rows = %d, want one per distinct (s, r) pair = %d",
					filtered, workers, rstats.ScoreSweeps, rstats.BatchRows, groups)
			}
			// One block per relation at least; with three workers the row
			// cap is ⌈15/3⌉ = 5, which splits the 7-group relation.
			if want := map[int]int{1: 3, 3: 4}[workers]; rstats.BatchedSweeps != want {
				t.Errorf("filtered=%v workers=%d: batched sweeps = %d, want %d", filtered, workers, rstats.BatchedSweeps, want)
			}
			for i, c := range candidates {
				if want := ranker.RankObject(c); ranks[i] != want {
					t.Fatalf("filtered=%v workers=%d candidate %d (%v): rank %d != per-candidate %d",
						filtered, workers, i, c, ranks[i], want)
				}
			}
		}
	}
}

// TestDiscoverFactsGroupedStats checks the sweep instrumentation: the sweep
// count is the number of distinct (s, r) groups, so it never exceeds the
// number of candidates ranked.
func TestDiscoverFactsGroupedStats(t *testing.T) {
	res := discover(t, Options{TopN: 40, MaxCandidates: 60, Seed: 21})
	if res.Stats.ScoreSweeps <= 0 {
		t.Fatal("ScoreSweeps not recorded")
	}
	if res.Stats.ScoreSweeps > res.Stats.Generated {
		t.Errorf("ScoreSweeps %d > Generated %d: grouping saved nothing",
			res.Stats.ScoreSweeps, res.Stats.Generated)
	}
}
