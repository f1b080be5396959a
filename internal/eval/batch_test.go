package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// perTripleRanks is the oracle of the batch- and pruned-path tests: one
// RankObject call per candidate. Its |E|-probe loop (one Contains per entity
// under the filtered protocol) shares no line with rankRow's counting pass,
// which RankObjects and RankObjectsBatch both answer from.
func perTripleRanks(r *Ranker, s kg.EntityID, rel kg.RelationID, objects []kg.EntityID) []int {
	ranks := make([]int, len(objects))
	for i, o := range objects {
		ranks[i] = r.RankObject(kg.Triple{S: s, R: rel, O: o})
	}
	return ranks
}

// perTripleBlock is perTripleRanks over a relation block: the reference a
// pruned block is compared against.
func perTripleBlock(r *Ranker, rel kg.RelationID, groups []Group) [][]int {
	ranks := make([][]int, len(groups))
	for gi, g := range groups {
		ranks[gi] = perTripleRanks(r, g.S, rel, g.Objects)
	}
	return ranks
}

// TestRankObjectsBatchMatchesGrouped asserts the relation-blocked path is
// exactly equivalent to per-candidate RankObject across all six model types
// under both protocols. Group sizes mix the small-group linear path and the
// counting path.
func TestRankObjectsBatchMatchesGrouped(t *testing.T) {
	const (
		nEnt = 40
		nRel = 4
		dim  = 12
	)
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

	allObjects := make([]kg.EntityID, nEnt)
	for o := range allObjects {
		allObjects[o] = kg.EntityID(o)
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
				for r := 0; r < nRel; r++ {
					// One block per relation: full-vocabulary and mid-sized
					// groups (counting path), a pair and a singleton (linear
					// path), a repeated object, and a duplicate subject.
					groups := []Group{
						{S: 0, Objects: allObjects},
						{S: 1, Objects: []kg.EntityID{3, 7, 7, 0}},
						{S: 2, Objects: allObjects[:7]},
						{S: 3, Objects: []kg.EntityID{5, 21}},
						{S: 0, Objects: []kg.EntityID{39}},
					}
					ranks := ranker.RankObjectsBatch(kg.RelationID(r), groups)
					if len(ranks) != len(groups) {
						t.Fatalf("%s: got %d rank groups, want %d", tc.protocol, len(ranks), len(groups))
					}
					for gi, g := range groups {
						want := perTripleRanks(ranker, g.S, kg.RelationID(r), g.Objects)
						for i, o := range g.Objects {
							if ranks[gi][i] != want[i] {
								t.Fatalf("%s/%s: rank(s=%d, r=%d, o=%d) batch=%d per-candidate=%d",
									name, tc.protocol, g.S, r, o, ranks[gi][i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestRankObjectsBatchTies drives the counting pass through a tie-heavy
// score table, raw and filtered: tied targets share distinct-value buckets,
// which is where the suffix-sum bookkeeping is easiest to get wrong.
func TestRankObjectsBatchTies(t *testing.T) {
	m := stubModel(8, 1, []float32{0.5, 0.9, 0.5, 0.1, 0.5, 0.9, 0.5, 0.5})
	filter := kg.NewGraph()
	for i := 0; i < 8; i++ {
		filter.Entities.Intern(string(rune('a' + i)))
	}
	filter.Relations.Intern("r")
	filter.Add(kg.Triple{S: 0, R: 0, O: 1})
	filter.Add(kg.Triple{S: 0, R: 0, O: 2})

	objects := []kg.EntityID{0, 1, 2, 3, 4, 5, 6, 7}
	for _, ranker := range []*Ranker{NewRanker(m, nil), NewRanker(m, filter)} {
		ranks := ranker.RankObjectsBatch(0, []Group{{S: 0, Objects: objects}})
		want := perTripleRanks(ranker, 0, 0, objects)
		for i, o := range objects {
			if ranks[0][i] != want[i] {
				t.Errorf("o=%d: batch rank %d != per-candidate %d", o, ranks[0][i], want[i])
			}
		}
	}

	// Hand-checked filtered tie (same case as the grouped test): target o=0
	// at 0.5 with one 0.9 and one 0.5 filter-skipped → rank 3. The group
	// carries 5 objects so the counting path, not the linear path, answers.
	ranks := NewRanker(m, filter).RankObjectsBatch(0, []Group{
		{S: 0, Objects: []kg.EntityID{0, 3, 4, 6, 7}},
	})
	if ranks[0][0] != 3 {
		t.Errorf("hand-computed filtered tie rank = %d, want 3", ranks[0][0])
	}
}

// TestRankObjectsBatchDegenerate covers empty blocks, empty groups, and
// pooled-buffer reuse across calls of different block shapes.
func TestRankObjectsBatchDegenerate(t *testing.T) {
	m := stubModel(4, 1, []float32{0.1, 0.5, 0.9, 0.3})
	r := NewRanker(m, nil)
	if ranks := r.RankObjectsBatch(0, nil); len(ranks) != 0 {
		t.Errorf("empty block returned %v", ranks)
	}
	ranks := r.RankObjectsBatch(0, []Group{{S: 0, Objects: nil}, {S: 1, Objects: []kg.EntityID{1}}})
	if len(ranks[0]) != 0 {
		t.Errorf("empty group returned %v", ranks[0])
	}
	if ranks[1][0] != 2 {
		t.Errorf("singleton group rank = %d, want 2", ranks[1][0])
	}
	// A second, larger call reuses (and grows) the pooled buffers.
	big := []Group{{S: 0, Objects: []kg.EntityID{0, 1, 2, 3, 0}}, {S: 2, Objects: []kg.EntityID{3, 2}}}
	ranks2 := r.RankObjectsBatch(0, big)
	for gi, g := range big {
		want := perTripleRanks(r, g.S, 0, g.Objects)
		for i := range g.Objects {
			if ranks2[gi][i] != want[i] {
				t.Errorf("reuse: group %d rank %d != %d", gi, ranks2[gi][i], want[i])
			}
		}
	}
}
