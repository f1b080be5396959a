package core

import "testing"

// TestDiscoverFactsBatchStats checks the batch instrumentation: every group
// goes through a batch (BatchRows == ScoreSweeps) and blocks amortize at
// least one group each.
func TestDiscoverFactsBatchStats(t *testing.T) {
	res := discover(t, Options{TopN: 40, MaxCandidates: 60, Seed: 21})
	if res.Stats.BatchRows != res.Stats.ScoreSweeps {
		t.Errorf("BatchRows = %d, want ScoreSweeps = %d", res.Stats.BatchRows, res.Stats.ScoreSweeps)
	}
	if res.Stats.BatchedSweeps < 1 || res.Stats.BatchedSweeps > res.Stats.BatchRows {
		t.Errorf("BatchedSweeps = %d, want in [1, %d]", res.Stats.BatchedSweeps, res.Stats.BatchRows)
	}
	var perRelBatched, perRelRows int
	for _, rel := range res.Stats.PerRelation {
		perRelBatched += rel.BatchedSweeps
		perRelRows += rel.BatchRows
	}
	if perRelBatched != res.Stats.BatchedSweeps || perRelRows != res.Stats.BatchRows {
		t.Errorf("per-relation batch stats (%d, %d) do not sum to totals (%d, %d)",
			perRelBatched, perRelRows, res.Stats.BatchedSweeps, res.Stats.BatchRows)
	}
}
