package eval

import (
	"testing"

	"repro/internal/kg"
)

func TestBestThreshold(t *testing.T) {
	// Separable: negatives at 0, positives at 1 — any threshold in (0, 1).
	xs := []scoredExample{{0, false}, {0, false}, {1, true}, {1, true}}
	th := bestThreshold(xs)
	if th <= 0 || th >= 1 {
		t.Errorf("threshold %g outside separating interval (0,1)", th)
	}
	// Empty input.
	if got := bestThreshold(nil); got != 0 {
		t.Errorf("empty threshold = %g, want 0", got)
	}
	// Inseparable with majority negatives: threshold above everything
	// (classify all as false) is optimal.
	xs2 := []scoredExample{{0.5, false}, {0.5, false}, {0.5, false}, {0.5, true}}
	th2 := bestThreshold(xs2)
	if th2 <= 0.5 {
		t.Errorf("majority-negative threshold %g should exceed 0.5", th2)
	}
}

func TestTrainClassifierOnSeparableModel(t *testing.T) {
	g := calibrationGraph(t)
	m := separableModel(g, 1)
	c, err := TrainClassifier(m, g, g, 1)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	// Every true triple classifies as +1, every corruption as −1.
	for _, tr := range g.Triples() {
		if c.Classify(tr) != 1 {
			t.Fatalf("true triple %v classified as false", tr)
		}
	}
	fake := kg.Triple{S: 0, R: 0, O: 0}
	if g.Contains(fake) {
		t.Skip("fixture collision")
	}
	if c.Classify(fake) != -1 {
		t.Error("false triple classified as true")
	}
	res := EvaluateClassifier(c, g, g, 2)
	if res.Accuracy < 0.99 {
		t.Errorf("separable accuracy = %.3f, want ≈ 1", res.Accuracy)
	}
	if res.Precision < 0.99 || res.Recall < 0.99 {
		t.Errorf("precision/recall = %.3f/%.3f, want ≈ 1", res.Precision, res.Recall)
	}
}

func TestClassifierGlobalFallback(t *testing.T) {
	g := calibrationGraph(t)
	m := separableModel(g, 2)
	c, err := TrainClassifier(m, g, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Relation 1 was never calibrated: Threshold must fall back to global.
	if th := c.Threshold(kg.RelationID(1)); th != c.global {
		t.Errorf("fallback threshold = %g, want global %g", th, c.global)
	}
}

func TestTrainClassifierEmptyHeldout(t *testing.T) {
	g := calibrationGraph(t)
	m := separableModel(g, 1)
	if _, err := TrainClassifier(m, kg.NewGraph(), g, 1); err == nil {
		t.Fatal("expected error for empty held-out graph")
	}
}
