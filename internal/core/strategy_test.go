package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
)

// strategyTestGraph builds a small graph with known structure:
//
//	relation 0: a→b, a→c, d→b   (a frequent subject, b frequent object)
//	relation 1: b→c, c→a, a→b   (forms the triangle a-b-c in the projection)
//	plus pendant: e→a (relation 0)
func strategyTestGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		g.Entities.Intern(n)
	}
	g.Relations.Intern("r0")
	g.Relations.Intern("r1")
	add := func(s, r, o int) {
		g.Add(kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kg.EntityID(o)})
	}
	add(0, 0, 1) // a r0 b
	add(0, 0, 2) // a r0 c
	add(3, 0, 1) // d r0 b
	add(4, 0, 0) // e r0 a
	add(1, 1, 2) // b r1 c
	add(2, 1, 0) // c r1 a
	add(0, 1, 1) // a r1 b
	return g
}

// weights is line 7 for one relation: s's weights for r with its statistic
// computed on g.
func weights(s Strategy, g *kg.Graph, r kg.RelationID) ([]kg.EntityID, []float64, []kg.EntityID, []float64) {
	return s.Weights(g, r, s.Statistic(g))
}

func TestStrategyByNameRoundtrip(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := StrategyByName("nope"); err == nil {
		t.Error("accepted unknown strategy name")
	}
}

func TestUniformRandomWeights(t *testing.T) {
	g := strategyTestGraph(t)
	s := NewUniformRandom()
	subs, sw, objs, ow := weights(s, g, 0)
	if len(subs) != 3 { // a, d, e
		t.Fatalf("subjects = %d, want 3", len(subs))
	}
	if len(objs) != 3 { // b, c, a
		t.Fatalf("objects = %d, want 3", len(objs))
	}
	for _, w := range sw {
		if w != sw[0] {
			t.Error("uniform subject weights differ")
		}
	}
	for _, w := range ow {
		if w != ow[0] {
			t.Error("uniform object weights differ")
		}
	}
}

func TestEntityFrequencyWeights(t *testing.T) {
	g := strategyTestGraph(t)
	s := NewEntityFrequency()
	subs, sw, objs, ow := weights(s, g, 0)
	weightOf := func(pool []kg.EntityID, ws []float64, e kg.EntityID) float64 {
		for i, p := range pool {
			if p == e {
				return ws[i]
			}
		}
		t.Fatalf("entity %d not in pool", e)
		return 0
	}
	// Subject side of r0: a appears twice, d and e once.
	if got := weightOf(subs, sw, 0); got != 2 {
		t.Errorf("weight(a as subject) = %g, want 2", got)
	}
	if got := weightOf(subs, sw, 3); got != 1 {
		t.Errorf("weight(d as subject) = %g, want 1", got)
	}
	// Object side of r0: b twice, c and a once.
	if got := weightOf(objs, ow, 1); got != 2 {
		t.Errorf("weight(b as object) = %g, want 2", got)
	}
	// Sides are weighted independently (paper's note on Equations 1-2).
	if got := weightOf(objs, ow, 0); got != 1 {
		t.Errorf("weight(a as object) = %g, want 1", got)
	}
}

func TestGraphDegreeWeights(t *testing.T) {
	g := strategyTestGraph(t)
	s := NewGraphDegree()
	subs, sw, _, _ := weights(s, g, 0)
	// Degrees (in+out over all triples): a: out 3 (2×r0 + 1×r1), in 2 → 5.
	for i, e := range subs {
		if e == 0 && sw[i] != 5 {
			t.Errorf("degree weight(a) = %g, want 5", sw[i])
		}
		if e == 4 && sw[i] != 1 {
			t.Errorf("degree weight(e) = %g, want 1", sw[i])
		}
	}
}

func TestClusteringTrianglesWeights(t *testing.T) {
	g := strategyTestGraph(t)
	s := NewClusteringTriangles()
	subs, sw, _, _ := weights(s, g, 0)
	// Triangle a-b-c exists; d, e are in none.
	for i, e := range subs {
		switch e {
		case 0: // a
			if sw[i] != 1 {
				t.Errorf("T(a) weight = %g, want 1", sw[i])
			}
		case 3, 4: // d, e
			if sw[i] != 0 {
				t.Errorf("T(%d) weight = %g, want 0", e, sw[i])
			}
		}
	}
}

func TestClusteringCoefficientWeights(t *testing.T) {
	g := strategyTestGraph(t)
	s := NewClusteringCoefficient()
	_, _, objs, ow := weights(s, g, 1)
	// Objects of r1: c, a, b — all corners of the triangle.
	// b: neighbours {a, c, d} → deg 3, 1 triangle → c = 2/(3·2) = 1/3.
	for i, e := range objs {
		if e == 1 && math.Abs(ow[i]-1.0/3) > 1e-12 {
			t.Errorf("c(b) weight = %g, want 1/3", ow[i])
		}
	}
}

func TestZeroWeightFallbackToUniform(t *testing.T) {
	// A path graph has no triangles: triangle weights are all zero and the
	// strategy must fall back to uniform rather than produce an unusable
	// all-zero distribution.
	g := kg.NewGraph()
	for _, n := range []string{"x", "y", "z"} {
		g.Entities.Intern(n)
	}
	g.Relations.Intern("r")
	g.Add(kg.Triple{S: 0, R: 0, O: 1})
	g.Add(kg.Triple{S: 1, R: 0, O: 2})
	s := NewClusteringTriangles()
	subs, sw, _, _ := weights(s, g, 0)
	if len(subs) == 0 {
		t.Fatal("no subjects")
	}
	var sum float64
	for _, w := range sw {
		sum += w
	}
	if sum <= 0 {
		t.Error("zero-weight fallback failed: weights sum to 0")
	}
}

func TestUniformNormalizedProbability(t *testing.T) {
	// Equation 1: normalized sampling probability is 1/len(side pool).
	g := strategyTestGraph(t)
	s := NewUniformRandom()
	subs, sw, _, _ := weights(s, g, 0)
	var sum float64
	for _, w := range sw {
		sum += w
	}
	for i := range sw {
		if p := sw[i] / sum; math.Abs(p-1/float64(len(subs))) > 1e-12 {
			t.Fatalf("normalized probability = %g, want %g", p, 1/float64(len(subs)))
		}
	}
}

// TestWeightsMonotoneInDegreeAndFrequency is the monotonicity property of
// Douglas et al. On seeded random graphs, adding one absent triple (s, r, o)
// lowers no GRAPH DEGREE weight and raises s's and o's wherever they are
// candidates; it lowers no ENTITY FREQUENCY weight and raises s's on r's
// subject side and o's on r's object side. A pool never loses an entity.
func TestWeightsMonotoneInDegreeAndFrequency(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, nr := 4+rng.Intn(30), 1+rng.Intn(4)
		g := kg.NewGraph()
		for e := 0; e < n; e++ {
			g.Entities.Intern(fmt.Sprint("e", e))
		}
		for r := 0; r < nr; r++ {
			g.Relations.Intern(fmt.Sprint("r", r))
		}
		random := func() kg.Triple {
			return kg.Triple{S: kg.EntityID(rng.Intn(n)), R: kg.RelationID(rng.Intn(nr)), O: kg.EntityID(rng.Intn(n))}
		}
		ts := make([]kg.Triple, 1+rng.Intn(3*n))
		for i := range ts {
			ts[i] = random()
		}
		g.AddAll(ts)
		add := random()
		for g.Contains(add) {
			add = random()
		}
		after := g.Clone()
		after.Add(add)

		for _, s := range []Strategy{NewGraphDegree(), NewEntityFrequency()} {
			raised := func(e kg.EntityID, r kg.RelationID, side kg.Side) bool {
				if s.Name() == "graph_degree" {
					return e == add.S || e == add.O
				}
				endpoint := add.S
				if side == kg.ObjectSide {
					endpoint = add.O
				}
				return r == add.R && e == endpoint
			}
			for _, r := range after.RelationIDs() {
				bs, bsw, bo, bow := weights(s, g, r)
				as, asw, ao, aow := weights(s, after, r)
				for _, side := range []struct {
					side         kg.Side
					bPool, aPool []kg.EntityID
					bW, aW       []float64
				}{{kg.SubjectSide, bs, as, bsw, asw}, {kg.ObjectSide, bo, ao, bow, aow}} {
					prev := make(map[kg.EntityID]float64, len(side.bPool))
					for i, e := range side.bPool {
						prev[e] = side.bW[i]
					}
					for i, e := range side.aPool {
						w0, w1 := prev[e], side.aW[i]
						delete(prev, e)
						if w1 < w0 || raised(e, r, side.side) && w1 <= w0 {
							t.Fatalf("seed %d, %s, adding %v: entity %d on side %d of relation %d weighs %g, was %g",
								seed, s.Name(), add, e, side.side, r, w1, w0)
						}
					}
					if len(prev) > 0 {
						t.Fatalf("seed %d, %s, adding %v: side %d of relation %d lost %d candidates",
							seed, s.Name(), add, side.side, r, len(prev))
					}
				}
			}
		}
	}
}
