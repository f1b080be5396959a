package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// TestRankObjectsMatchesRankObject asserts the grouped one-sweep ranking
// path is exactly equivalent to per-candidate RankObject across all six
// model types, under both the raw and the filtered protocol. Freshly
// initialized (untrained) models give arbitrary but deterministic scores,
// which is all rank equivalence needs.
func TestRankObjectsMatchesRankObject(t *testing.T) {
	const (
		nEnt = 40
		nRel = 4
		dim  = 12
	)
	// A filter graph dense enough that several corruptions of the probed
	// (s, r) pairs are filter-skipped.
	filter := kg.NewGraph()
	for i := 0; i < nEnt; i++ {
		filter.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		filter.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		filter.Add(kg.Triple{
			S: kg.EntityID(rng.Intn(nEnt)),
			R: kg.RelationID(rng.Intn(nRel)),
			O: kg.EntityID(rng.Intn(nEnt)),
		})
	}

	for _, name := range kge.ModelNames() {
		t.Run(name, func(t *testing.T) {
			model, err := kge.New(name, kge.Config{
				NumEntities: nEnt, NumRelations: nRel, Dim: dim, Seed: 3,
			})
			if err != nil {
				t.Fatalf("new %s: %v", name, err)
			}
			for _, tc := range []struct {
				protocol string
				filter   *kg.Graph
			}{
				{"raw", nil},
				{"filtered", filter},
			} {
				ranker := NewRanker(model, tc.filter)
				for s := 0; s < 5; s++ {
					for r := 0; r < nRel; r++ {
						// Rank every entity as a candidate object so the
						// group covers filter-contained objects and the
						// extremes of the score range.
						objects := make([]kg.EntityID, nEnt)
						for o := range objects {
							objects[o] = kg.EntityID(o)
						}
						grouped := ranker.RankObjects(kg.EntityID(s), kg.RelationID(r), objects)
						for i, o := range objects {
							want := ranker.RankObject(kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: o})
							if grouped[i] != want {
								t.Fatalf("%s/%s: rank(s=%d, r=%d, o=%d) grouped=%d per-candidate=%d",
									name, tc.protocol, s, r, o, grouped[i], want)
							}
						}
					}
				}
			}
		})
	}
}

// TestRankObjectsTiesAndFilteredTies drives the mean tie policy and the
// filter corrections through a score table with heavy ties, where the
// counting pass's equal/between bookkeeping is easiest to get wrong.
func TestRankObjectsTiesAndFilteredTies(t *testing.T) {
	// Scores by object: 0.5 appears five times, 0.9 twice, 0.1 once.
	m := stubModel(8, 1, []float32{0.5, 0.9, 0.5, 0.1, 0.5, 0.9, 0.5, 0.5})
	filter := kg.NewGraph()
	for i := 0; i < 8; i++ {
		filter.Entities.Intern(string(rune('a' + i)))
	}
	filter.Relations.Intern("r")
	// Skip one of the 0.9s and one of the 0.5s for subject 0.
	filter.Add(kg.Triple{S: 0, R: 0, O: 1})
	filter.Add(kg.Triple{S: 0, R: 0, O: 2})

	objects := []kg.EntityID{0, 1, 2, 3, 4, 5, 6, 7}
	for _, ranker := range []*Ranker{NewRanker(m, nil), NewRanker(m, filter)} {
		grouped := ranker.RankObjects(0, 0, objects)
		for i, o := range objects {
			want := ranker.RankObject(kg.Triple{S: 0, R: 0, O: o})
			if grouped[i] != want {
				t.Errorf("o=%d: grouped rank %d != per-candidate %d", o, grouped[i], want)
			}
		}
	}

	// Spot-check the filtered mean-policy arithmetic by hand: for target
	// o=0 (score 0.5) with o=1 (0.9) and o=2 (0.5) filter-skipped,
	// greater = 1 (the remaining 0.9), equal = 3 → rank 1 + 1 + 1 = 3.
	if got := NewRanker(m, filter).RankObjects(0, 0, []kg.EntityID{0})[0]; got != 3 {
		t.Errorf("hand-computed filtered tie rank = %d, want 3", got)
	}
}

// TestRankObjectsEmptyAndSingle covers the degenerate group sizes the
// scheduler can produce.
func TestRankObjectsEmptyAndSingle(t *testing.T) {
	m := stubModel(4, 1, []float32{0.1, 0.5, 0.9, 0.3})
	r := NewRanker(m, nil)
	if got := r.RankObjects(0, 0, nil); len(got) != 0 {
		t.Errorf("empty group returned %v", got)
	}
	if got := r.RankObjects(0, 0, []kg.EntityID{1}); got[0] != 2 {
		t.Errorf("singleton group rank = %d, want 2", got[0])
	}
}
