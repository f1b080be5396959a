package eval

import (
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// popularityModel scores objects purely by their global popularity — the
// maximally popularity-biased model — and antiPopularityModel by its
// negation.
func popularityModel(pop []float32) *kge.Derived { return popularity("popbias", pop, 1) }

func antiPopularityModel(pop []float32) *kge.Derived { return popularity("antipop", pop, -1) }

func popularity(name string, pop []float32, sign float32) *kge.Derived {
	return newLinearModel(name, len(pop), 1, 1,
		func(o int, e []float32) { e[0] = pop[o] },
		func(_ kg.EntityID, _ kg.RelationID, q []float32) { q[0] = sign })
}

func biasGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	for i := 0; i < 12; i++ {
		g.Entities.Intern(string(rune('a' + i)))
	}
	g.Relations.Intern("r")
	// Entity 0 is the hub: high degree.
	for i := 1; i < 12; i++ {
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: 0})
	}
	g.Add(kg.Triple{S: 1, R: 0, O: 2})
	g.Add(kg.Triple{S: 3, R: 0, O: 4})
	return g
}

func popVector(g *kg.Graph) []float32 {
	pop := make([]float32, g.NumEntities())
	for e := range pop {
		pop[e] = float32(g.Degree(kg.EntityID(e)))
	}
	return pop
}

func TestPopularityBiasDetectsBiasedModel(t *testing.T) {
	g := biasGraph(t)
	m := popularityModel(popVector(g))
	rep := PopularityBias(m, g, 20, 1)
	if rep.Contexts == 0 {
		t.Fatal("no contexts sampled")
	}
	if rep.MeanSpearman < 0.9 {
		t.Errorf("perfectly biased model scored %.3f, want ≈ 1", rep.MeanSpearman)
	}
}

func TestPopularityBiasDetectsAntiBias(t *testing.T) {
	g := biasGraph(t)
	m := antiPopularityModel(popVector(g))
	rep := PopularityBias(m, g, 20, 1)
	if rep.MeanSpearman > -0.9 {
		t.Errorf("anti-biased model scored %.3f, want ≈ -1", rep.MeanSpearman)
	}
}

func TestPopularityBiasEmptyGraph(t *testing.T) {
	g := kg.NewGraph()
	m := popularityModel([]float32{0})
	rep := PopularityBias(m, g, 10, 1)
	if rep.Contexts != 0 {
		t.Errorf("empty graph produced %d contexts", rep.Contexts)
	}
}

// TestPopularityBiasSkipsConstantScores: a model that scores every object
// alike has no rank correlation with popularity in any context, so every
// context is skipped and the report is zero, not NaN.
func TestPopularityBiasSkipsConstantScores(t *testing.T) {
	g := biasGraph(t)
	rep := PopularityBias(popularity("flat", popVector(g), 0), g, 10, 1)
	if rep.Contexts != 0 || rep.MeanSpearman != 0 {
		t.Errorf("constant scores: %+v, want no contexts and MeanSpearman 0", rep)
	}
}
