package core

import (
	"context"
	"testing"

	"repro/internal/kge"
	"repro/internal/prune"
)

// tinyIndex builds the prune index every pruned test below ranks through.
func tinyIndex(t *testing.T) *prune.Index {
	t.Helper()
	_, m := tinyTrained(t)
	ix, err := prune.Build(m, kge.Fingerprint(m), prune.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestDiscoverFactsPrunedEquivalence is the end-to-end byte-identity claim
// behind PruneExact: exact-mode pruned discovery finds exactly the facts
// (triples and ranks, in canonical order) of the dense run, under both
// ranking protocols.
func TestDiscoverFactsPrunedEquivalence(t *testing.T) {
	ix := tinyIndex(t)
	for _, filtered := range []bool{false, true} {
		base := Options{TopN: 5, MaxCandidates: 60, Seed: 21, RankFiltered: filtered}
		dense := discover(t, base)

		opts := base
		opts.PruneMode = PruneExact
		opts.PruneIndex = ix
		pruned := discover(t, opts)

		if len(pruned.Facts) != len(dense.Facts) {
			t.Fatalf("filtered=%v: pruned found %d facts, dense %d",
				filtered, len(pruned.Facts), len(dense.Facts))
		}
		for i := range dense.Facts {
			if pruned.Facts[i] != dense.Facts[i] {
				t.Fatalf("filtered=%v: fact %d differs: pruned %+v dense %+v",
					filtered, i, pruned.Facts[i], dense.Facts[i])
			}
		}
	}

	// The dense run must not report prune work, and with this small TopN the
	// pruned run should have exercised the index.
	dense := discover(t, Options{TopN: 5, MaxCandidates: 60, Seed: 21})
	if dense.Stats.CellsPruned != 0 || dense.Stats.PrescreenRows != 0 {
		t.Errorf("dense run recorded prune stats (%d, %d), want zero",
			dense.Stats.CellsPruned, dense.Stats.PrescreenRows)
	}
	pruned := discover(t, Options{TopN: 5, MaxCandidates: 60, Seed: 21, PruneMode: PruneExact, PruneIndex: ix})
	if pruned.Stats.BatchedSweeps != 0 || pruned.Stats.BatchRows != 0 {
		t.Errorf("pruned run recorded batch sweeps (%d, %d), want zero",
			pruned.Stats.BatchedSweeps, pruned.Stats.BatchRows)
	}
	// The prescreen filter runs for every visited cell once the frontier is
	// full, so zero here means the stats pipeline lost the searcher counters.
	if pruned.Stats.PrescreenRows == 0 {
		t.Error("pruned run reported zero prescreen rows — searcher stats were dropped")
	}
	var perRelCells, perRelRows int
	for _, rel := range pruned.Stats.PerRelation {
		perRelCells += rel.CellsPruned
		perRelRows += rel.PrescreenRows
	}
	if perRelCells != pruned.Stats.CellsPruned || perRelRows != pruned.Stats.PrescreenRows {
		t.Errorf("per-relation prune stats (%d, %d) do not sum to totals (%d, %d)",
			perRelCells, perRelRows, pruned.Stats.CellsPruned, pruned.Stats.PrescreenRows)
	}
}

// TestDiscoverFactsPrunedApprox pins the approximate mode's one-sided error:
// the frontier built from a capped probe budget can only under-count the
// corruptions outscoring a candidate, never over-count them, so every fact
// the dense run keeps is also kept by the approximate run (with an equal or
// better reported rank) — recall 1.0 against the dense output by
// construction, with precision the only thing the probe budget trades away.
func TestDiscoverFactsPrunedApprox(t *testing.T) {
	res := discover(t, Options{TopN: 5, MaxCandidates: 60, Seed: 21, PruneMode: PruneApprox, PruneIndex: tinyIndex(t)})
	dense := discover(t, Options{TopN: 5, MaxCandidates: 60, Seed: 21})
	approxRank := map[[3]int32]int{}
	for _, f := range res.Facts {
		approxRank[[3]int32{int32(f.Triple.S), int32(f.Triple.R), int32(f.Triple.O)}] = f.Rank
	}
	for _, f := range dense.Facts {
		got, ok := approxRank[[3]int32{int32(f.Triple.S), int32(f.Triple.R), int32(f.Triple.O)}]
		if !ok {
			t.Fatalf("approx run lost dense fact %+v", f)
		}
		if got > f.Rank {
			t.Fatalf("approx rank %d worse than dense %d for %+v", got, f.Rank, f.Triple)
		}
	}
}

func TestDiscoverFactsPruneModeValidation(t *testing.T) {
	ds, m := tinyTrained(t)
	_, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(),
		Options{PruneMode: "sometimes"})
	if err == nil {
		t.Fatal("bogus prune mode accepted")
	}
	// Pruned modes rank through a caller-built index; there is no
	// in-process fallback build.
	for _, mode := range []string{PruneExact, PruneApprox} {
		if _, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(),
			Options{TopN: 5, MaxCandidates: 20, Seed: 3, PruneMode: mode}); err == nil {
			t.Fatalf("mode %q without a PruneIndex accepted", mode)
		}
	}
	// "off" and "" are both the dense path.
	for _, mode := range []string{"", PruneOff} {
		if _, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(),
			Options{TopN: 5, MaxCandidates: 20, Seed: 3, PruneMode: mode}); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
	}
}
