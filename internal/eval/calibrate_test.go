package eval

import (
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// separableModel gives positives (triples of g) score 3 and everything else
// −3 — perfectly separable calibration data — over k relations: one-hot
// entity rows, and a query holding each object's score.
func separableModel(g *kg.Graph, k int) *kge.Derived {
	n := g.NumEntities()
	return newLinearModel("separable", n, k, n,
		func(o int, e []float32) { e[o] = 1 },
		func(s kg.EntityID, r kg.RelationID, q []float32) {
			for o := range q {
				q[o] = -3
				if g.Contains(kg.Triple{S: s, R: r, O: kg.EntityID(o)}) {
					q[o] = 3
				}
			}
		})
}

func calibrationGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	for i := 0; i < 30; i++ {
		g.Entities.Intern(string(rune('a' + i)))
	}
	g.Relations.Intern("r")
	for i := 0; i < 29; i++ {
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID(i + 1)})
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID((i * 7) % 30)})
	}
	return g
}

func TestFitPlattSeparatesClasses(t *testing.T) {
	g := calibrationGraph(t)
	m := separableModel(g, 1)
	cal, err := FitPlatt(m, g, g)
	if err != nil {
		t.Fatalf("FitPlatt: %v", err)
	}
	pPos := cal.Prob(3)
	pNeg := cal.Prob(-3)
	if pPos <= 0.8 {
		t.Errorf("positive-score probability = %.3f, want > 0.8", pPos)
	}
	if pNeg >= 0.2 {
		t.Errorf("negative-score probability = %.3f, want < 0.2", pNeg)
	}
	if pPos <= pNeg {
		t.Error("calibrator not monotone in score")
	}
}

func TestPlattProbMonotone(t *testing.T) {
	cal := &PlattCalibrator{A: 2, C: -1}
	prev := -1.0
	for s := float32(-5); s <= 5; s += 0.5 {
		p := cal.Prob(s)
		if p <= prev {
			t.Fatalf("Prob not strictly increasing at %g", s)
		}
		if p < 0 || p > 1 {
			t.Fatalf("Prob(%g) = %g outside [0,1]", s, p)
		}
		prev = p
	}
}

func TestPlattNegativeSlope(t *testing.T) {
	// A model whose scores are inverted yields a negative A — the
	// calibrator must still produce valid monotone-decreasing probabilities.
	cal := &PlattCalibrator{A: -1, C: 0}
	if cal.Prob(-2) <= cal.Prob(2) {
		t.Error("negative slope not respected")
	}
}

func TestFitPlattEmptyHeldout(t *testing.T) {
	g := calibrationGraph(t)
	m := separableModel(g, 1)
	if _, err := FitPlatt(m, kg.NewGraph(), g); err == nil {
		t.Fatal("expected error for empty held-out graph")
	}
}

func TestFitPlattDeterministic(t *testing.T) {
	// The negatives come from a fixed seed: the same input must give the
	// same calibrator, bit for bit.
	g := calibrationGraph(t)
	m := separableModel(g, 1)
	a, err := FitPlatt(m, g, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitPlatt(m, g, g)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("same input produced different calibrators: %+v vs %+v", a, b)
	}
}
