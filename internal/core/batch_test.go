package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

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

// scoreCountingModel counts Score calls, to pin down the calibrator path's
// scoring cost: the sweep scores are reused, so DiscoverFacts must not call
// Score at all.
type scoreCountingModel struct {
	kge.Model
	scoreCalls atomic.Int64
}

func (m *scoreCountingModel) Score(t kg.Triple) float32 {
	m.scoreCalls.Add(1)
	return m.Model.Score(t)
}

func TestCalibratorReusesSweepScores(t *testing.T) {
	ds, inner := tinyTrained(t)
	m := &scoreCountingModel{Model: inner}
	// A calibrator that keeps everything: every kept fact needs a score.
	opts := Options{
		TopN: 40, MaxCandidates: 60, Seed: 21,
		Calibrator:     func(score float32) float64 { return 1 },
		MinProbability: 0.5,
	}
	res, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facts) == 0 {
		t.Fatal("no facts discovered")
	}
	if n := m.scoreCalls.Load(); n != 0 {
		t.Errorf("calibrated discovery called Score %d times, want 0 (sweep reuse)", n)
	}
}
