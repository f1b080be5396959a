package eval

import (
	"math"
	"testing"

	"repro/internal/graphstats"
	"repro/internal/kg"
)

func hiddenGraph(t *testing.T, triples ...kg.Triple) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	for i := 0; i < 10; i++ {
		g.Entities.Intern(string(rune('a' + i)))
	}
	g.Relations.Intern("r")
	for _, tr := range triples {
		g.Add(tr)
	}
	return g
}

func TestEvaluateDiscoveryBasic(t *testing.T) {
	hidden := hiddenGraph(t,
		kg.Triple{S: 0, R: 0, O: 1},
		kg.Triple{S: 2, R: 0, O: 3},
		kg.Triple{S: 4, R: 0, O: 5},
		kg.Triple{S: 6, R: 0, O: 7},
	)
	facts := []RankedFact{
		{Triple: kg.Triple{S: 0, R: 0, O: 1}, Rank: 1},  // hit
		{Triple: kg.Triple{S: 9, R: 0, O: 8}, Rank: 2},  // unknown
		{Triple: kg.Triple{S: 2, R: 0, O: 3}, Rank: 5},  // hit
		{Triple: kg.Triple{S: 8, R: 0, O: 9}, Rank: 10}, // unknown
	}
	rep := EvaluateDiscovery(facts, hidden)
	if rep.Recovered != 2 {
		t.Errorf("Recovered = %d, want 2", rep.Recovered)
	}
	if rep.Recall != 0.5 {
		t.Errorf("Recall = %g, want 0.5", rep.Recall)
	}
	if rep.KnownTrueRate != 0.5 {
		t.Errorf("KnownTrueRate = %g, want 0.5", rep.KnownTrueRate)
	}
	// RecallAt |D| equals total recall.
	if got := rep.RecallAt[len(facts)]; got != rep.Recall {
		t.Errorf("RecallAt[|D|] = %g, want %g", got, rep.Recall)
	}
}

func TestEvaluateDiscoveryRecallCurveIsMonotone(t *testing.T) {
	hidden := hiddenGraph(t,
		kg.Triple{S: 0, R: 0, O: 1},
		kg.Triple{S: 2, R: 0, O: 3},
	)
	facts := []RankedFact{
		{Triple: kg.Triple{S: 5, R: 0, O: 6}, Rank: 1},
		{Triple: kg.Triple{S: 0, R: 0, O: 1}, Rank: 2},
		{Triple: kg.Triple{S: 2, R: 0, O: 3}, Rank: 3},
	}
	rep := EvaluateDiscovery(facts, hidden)
	if rep.RecallAt[10] < rep.RecallAt[len(facts)] {
		// With |D| = 3 < 10 the two cutoffs coincide.
		t.Errorf("recall curve not monotone: %v", rep.RecallAt)
	}
	if rep.Recall != 1 {
		t.Errorf("Recall = %g, want 1", rep.Recall)
	}
}

func TestEvaluateDiscoveryEmptyInputs(t *testing.T) {
	hidden := hiddenGraph(t)
	rep := EvaluateDiscovery(nil, hidden)
	if rep.Recall != 0 || rep.Recovered != 0 {
		t.Errorf("empty: %+v", rep)
	}
	hidden2 := hiddenGraph(t, kg.Triple{S: 0, R: 0, O: 1})
	rep2 := EvaluateDiscovery(nil, hidden2)
	if rep2.Recall != 0 || rep2.Hidden != 1 {
		t.Errorf("no facts: %+v", rep2)
	}
}

func TestHideFactsPartition(t *testing.T) {
	g := kg.NewGraph()
	for i := 0; i < 30; i++ {
		g.Entities.Intern(string(rune('A' + i)))
	}
	g.Relations.Intern("r")
	for i := 0; i < 29; i++ {
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID(i + 1)})
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID((i + 5) % 30)})
	}
	visible, hidden := HideFacts(g, 0.3, 7)
	if visible.Len()+hidden.Len() != g.Len() {
		t.Fatalf("partition loses triples: %d + %d != %d", visible.Len(), hidden.Len(), g.Len())
	}
	if hidden.Len() == 0 {
		t.Fatal("nothing hidden at fraction 0.3")
	}
	for _, tr := range hidden.Triples() {
		if visible.Contains(tr) {
			t.Fatalf("triple %v in both partitions", tr)
		}
		if !g.Contains(tr) {
			t.Fatalf("hidden triple %v not from g", tr)
		}
	}
	// No entity may be orphaned in the visible graph.
	for e := 0; e < g.NumEntities(); e++ {
		if g.Degree(kg.EntityID(e)) > 0 && visible.Degree(kg.EntityID(e)) == 0 {
			t.Errorf("entity %d orphaned by hiding", e)
		}
	}
}

func TestHideFactsDeterministic(t *testing.T) {
	g := kg.NewGraph()
	for i := 0; i < 20; i++ {
		g.Entities.Intern(string(rune('A' + i)))
	}
	g.Relations.Intern("r")
	for i := 0; i < 19; i++ {
		g.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID(i + 1)})
		g.Add(kg.Triple{S: kg.EntityID((i * 3) % 20), R: 0, O: kg.EntityID((i*7 + 1) % 20)})
	}
	_, h1 := HideFacts(g, 0.25, 9)
	_, h2 := HideFacts(g, 0.25, 9)
	if h1.Len() != h2.Len() {
		t.Fatalf("non-deterministic hide: %d vs %d", h1.Len(), h2.Len())
	}
	for _, tr := range h1.Triples() {
		if !h2.Contains(tr) {
			t.Fatal("same seed hid different triples")
		}
	}
}

func TestHideFactsZeroFraction(t *testing.T) {
	g := kg.NewGraph()
	g.Entities.Intern("a")
	g.Entities.Intern("b")
	g.Relations.Intern("r")
	g.Add(kg.Triple{S: 0, R: 0, O: 1})
	visible, hidden := HideFacts(g, 0, 1)
	if hidden.Len() != 0 || visible.Len() != 1 {
		t.Errorf("zero fraction: visible=%d hidden=%d", visible.Len(), hidden.Len())
	}
}

func TestRankVector(t *testing.T) {
	ranks := rankVector([]float64{10, 30, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	// Ties share the mean rank.
	tied := rankVector([]float64{5, 5, 1})
	if tied[2] != 1 || tied[0] != 2.5 || tied[1] != 2.5 {
		t.Errorf("tied ranks = %v, want [2.5 2.5 1]", tied)
	}
}

// TestPearsonHelper pins the correlation PopularityBias averages: a linear
// pair correlates at 1, and a constant series is undefined, so its context
// is skipped rather than averaged in as NaN.
func TestPearsonHelper(t *testing.T) {
	if got, ok := graphstats.PearsonCorrelation([]float64{1, 2, 3}, []float64{2, 4, 6}); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("pearson = %g (ok %v), want 1", got, ok)
	}
	if got, ok := graphstats.PearsonCorrelation([]float64{1, 2, 3}, []float64{5, 5, 5}); ok {
		t.Errorf("constant series should be undefined, got %g", got)
	}
}
