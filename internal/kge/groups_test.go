package kge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
)

// groupCandidates mixes distinct entities, a duplicate, and the shared-side
// entity itself (a self-loop candidate) to stress accumulation-order and
// aliased-row behaviour.
func groupCandidates() []kg.EntityID {
	return []kg.EntityID{4, 0, 7, 4, 1}
}

// TestGroupScoresMatchScore verifies both group sweeps against per-triple
// Score for every model (tolerance: the group path reassociates the dot).
func TestGroupScoresMatchScore(t *testing.T) {
	for _, m := range derivedModels(t) {
		gt := m.(*Derived)
		t.Run(m.Name(), func(t *testing.T) {
			s, r, o := kg.EntityID(1), kg.RelationID(2), kg.EntityID(3)
			cands := groupCandidates()
			out := make([]float32, len(cands))
			var scr GroupScratch

			gt.ScoreObjectsGroup(s, r, cands, out, &scr)
			for i, c := range cands {
				want := m.Score(kg.Triple{S: s, R: r, O: c})
				if d := math.Abs(float64(out[i] - want)); d > 1e-4*(1+math.Abs(float64(want))) {
					t.Errorf("objects[%d]: group %v, Score %v", i, out[i], want)
				}
			}

			gt.ScoreSubjectsGroup(r, o, cands, out, &scr)
			for i, c := range cands {
				want := m.Score(kg.Triple{S: c, R: r, O: o})
				if d := math.Abs(float64(out[i] - want)); d > 1e-4*(1+math.Abs(float64(want))) {
					t.Errorf("subjects[%d]: group %v, Score %v", i, out[i], want)
				}
			}
		})
	}
}

// TestGroupGradMatchesPerTriple verifies for both sides that the grouped
// gradient equals the sequence of per-triple AccumulateGrad calls: same row
// set exactly (sparse-optimizer semantics), values to reassociation
// tolerance. Zero upstreams must skip rows exactly as the scalar path does.
func TestGroupGradMatchesPerTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range derivedModels(t) {
		gt := m.(*Derived)
		for _, side := range []string{"objects", "subjects"} {
			t.Run(m.Name()+"/"+side, func(t *testing.T) {
				s, r, o := kg.EntityID(1), kg.RelationID(2), kg.EntityID(3)
				cands := groupCandidates()
				upstream := make([]float32, len(cands))
				for i := range upstream {
					upstream[i] = float32(rng.NormFloat64())
				}
				upstream[2] = 0 // exercise the skip path

				out := make([]float32, len(cands))
				var scr GroupScratch
				grouped := NewGradBuffer(m.Params())
				reference := NewGradBuffer(m.Params())
				if side == "objects" {
					gt.ScoreObjectsGroup(s, r, cands, out, &scr)
					gt.AccumulateGradObjectsGroup(s, r, cands, upstream, grouped, &scr)
					for i, c := range cands {
						if upstream[i] == 0 {
							continue
						}
						tr := kg.Triple{S: s, R: r, O: c}
						_, tctx := m.ScoreWithContext(tr, nil)
						m.AccumulateGrad(tr, tctx, upstream[i], reference)
					}
				} else {
					gt.ScoreSubjectsGroup(r, o, cands, out, &scr)
					gt.AccumulateGradSubjectsGroup(r, o, cands, upstream, grouped, &scr)
					for i, c := range cands {
						if upstream[i] == 0 {
							continue
						}
						tr := kg.Triple{S: c, R: r, O: o}
						_, tctx := m.ScoreWithContext(tr, nil)
						m.AccumulateGrad(tr, tctx, upstream[i], reference)
					}
				}
				if gradLen(grouped) != gradLen(reference) {
					t.Errorf("%s/%s: grouped touches %d rows, per-triple %d",
						m.Name(), side, gradLen(grouped), gradLen(reference))
				}
				compareGradBuffers(t, m, grouped, reference)
			})
		}
	}
}

// TestGroupGradAllZeroUpstreamTouchesNothing: a group whose upstreams are
// all zero must leave the gradient buffer empty — the scalar path would
// never have called AccumulateGrad at all.
func TestGroupGradAllZeroUpstreamTouchesNothing(t *testing.T) {
	for _, m := range derivedModels(t) {
		gt := m.(*Derived)
		t.Run(m.Name(), func(t *testing.T) {
			cands := groupCandidates()
			zero := make([]float32, len(cands))
			out := make([]float32, len(cands))
			gb := NewGradBuffer(m.Params())
			var scr GroupScratch
			gt.ScoreObjectsGroup(1, 2, cands, out, &scr)
			gt.AccumulateGradObjectsGroup(1, 2, cands, zero, gb, &scr)
			gt.ScoreSubjectsGroup(2, 3, cands, out, &scr)
			gt.AccumulateGradSubjectsGroup(2, 3, cands, zero, gb, &scr)
			if gradLen(gb) != 0 {
				t.Errorf("all-zero upstream touched %d rows", gradLen(gb))
			}
		})
	}
}
