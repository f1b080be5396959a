package core

import (
	"context"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

func ruleTestGraph(t *testing.T) *kg.Graph {
	t.Helper()
	g := kg.NewGraph()
	for _, n := range []string{"alice", "bob", "carol", "paris", "rome"} {
		g.Entities.Intern(n)
	}
	g.Relations.Intern("knows")    // person -> person, non-functional
	g.Relations.Intern("lives_in") // person -> city, functional
	add := func(s, r, o int) {
		g.Add(kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kg.EntityID(o)})
	}
	add(0, 0, 1) // alice knows bob
	add(1, 0, 2) // bob knows carol
	add(0, 1, 3) // alice lives_in paris
	add(1, 1, 4) // bob lives_in rome
	return g
}

// ruleCandidates returns the triples ExhaustiveDiscover scores on g, with or
// without rules. Under the raw protocol no rank exceeds |E|, so with TopN at
// |E| line 15 keeps every candidate and the facts are the candidate set.
func ruleCandidates(t *testing.T, g *kg.Graph, rules bool) map[kg.Triple]bool {
	t.Helper()
	m, err := kge.New("distmult", kge.Config{NumEntities: g.NumEntities(), NumRelations: g.NumRelations(), Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ExhaustiveDiscover(context.Background(), m, g, ExhaustiveOptions{TopN: g.NumEntities(), Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[kg.Triple]bool, len(res.Facts))
	for _, f := range res.Facts {
		out[f.Triple] = true
	}
	return out
}

// wantCandidates asserts, for each triple, whether the rules admit it as a
// candidate on g; every triple is asserted a candidate without rules first,
// so the rules are what tells them apart.
func wantCandidates(t *testing.T, g *kg.Graph, cases map[kg.Triple]bool) {
	t.Helper()
	all, ruled := ruleCandidates(t, g, false), ruleCandidates(t, g, true)
	for tr, want := range cases {
		if !all[tr] {
			t.Errorf("%s: not a candidate even without rules", g.FormatTriple(tr))
		}
		if ruled[tr] != want {
			t.Errorf("%s: candidate under rules = %v, want %v", g.FormatTriple(tr), ruled[tr], want)
		}
	}
}

func TestDomainRangeRule(t *testing.T) {
	g := ruleTestGraph(t)
	// Two more triples make both relations non-functional, so only domain
	// and range decide.
	g.AddNamed("alice", "knows", "carol")
	g.AddNamed("bob", "lives_in", "paris")
	wantCandidates(t, g, map[kg.Triple]bool{
		{S: 2, R: 1, O: 3}: false, // (carol, lives_in, paris): carol never a lives_in subject
		{S: 0, R: 1, O: 4}: true,  // (alice, lives_in, rome): both sides observed for lives_in
		{S: 0, R: 0, O: 3}: false, // (alice, knows, paris): paris never an object of knows
	})
}

func TestNoSelfLoopRule(t *testing.T) {
	g := ruleTestGraph(t)
	// alice knows carol and carol knows alice: knows is non-functional and
	// alice, bob and carol are each a subject and an object of it.
	g.AddNamed("alice", "knows", "carol")
	g.AddNamed("carol", "knows", "alice")
	wantCandidates(t, g, map[kg.Triple]bool{
		{S: 1, R: 0, O: 1}: false, // (bob, knows, bob): a self-loop
		{S: 1, R: 0, O: 0}: true,  // (bob, knows, alice): not a loop
	})
}

func TestFunctionalRelationRule(t *testing.T) {
	g := ruleTestGraph(t)
	wantCandidates(t, g, map[kg.Triple]bool{
		// lives_in is functional (1 object per subject): a second city for
		// alice contradicts it.
		{S: 0, R: 1, O: 4}: false,
		// carol has no lives_in fact yet, but she is outside lives_in's
		// domain, and a functional relation keeps no candidate at all.
		{S: 2, R: 1, O: 3}: false,
		// knows also has avg 1.0 object per subject in this graph, so it
		// counts as functional too.
		{S: 0, R: 0, O: 2}: false,
	})
	// Once a subject has multiple objects, the relation stops counting as
	// functional and candidates pass again.
	g.AddNamed("alice", "knows", "carol") // avg objects 1.5
	g.AddNamed("carol", "knows", "alice") // alice joins the range
	wantCandidates(t, g, map[kg.Triple]bool{{S: 1, R: 0, O: 0}: true})
}

func TestExhaustiveDiscoverCompleteOnTinyGraph(t *testing.T) {
	ds, m := tinyTrained(t)
	rel := ds.Train.RelationIDs()[0]
	res, stats, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{
		TopN:      20,
		Relations: []kg.RelationID{rel},
	})
	if err != nil {
		t.Fatalf("ExhaustiveDiscover: %v", err)
	}
	n := int64(ds.Train.NumEntities())
	wantComplement := n*n - int64(len(ds.Train.RelationTriples(rel)))
	if stats.ComplementSize != wantComplement {
		t.Errorf("ComplementSize = %d, want %d", stats.ComplementSize, wantComplement)
	}
	if stats.Generated != int(wantComplement) {
		t.Errorf("Generated = %d, want full complement %d with no rules", stats.Generated, wantComplement)
	}
	for _, f := range res.Facts {
		if ds.Train.Contains(f.Triple) {
			t.Fatalf("exhaustive discovery returned a known triple %v", f.Triple)
		}
		if f.Rank > 20 {
			t.Fatalf("rank %d above top_n", f.Rank)
		}
	}
}

// Exhaustive discovery is the completeness reference: every fact the
// sampling algorithm finds for a relation must also be found exhaustively
// (same model, same top_n, raw protocol).
func TestSamplingIsSubsetOfExhaustive(t *testing.T) {
	ds, m := tinyTrained(t)
	rel := ds.Train.RelationIDs()[1]
	sampled, err := DiscoverFacts(context.Background(), m, ds.Train, NewEntityFrequency(), Options{
		TopN: 15, MaxCandidates: 60, Seed: 3, Relations: []kg.RelationID{rel},
	})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, _, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{
		TopN: 15, Relations: []kg.RelationID{rel},
	})
	if err != nil {
		t.Fatal(err)
	}
	inExhaustive := make(map[kg.Triple]struct{}, len(exhaustive.Facts))
	for _, f := range exhaustive.Facts {
		inExhaustive[f.Triple] = struct{}{}
	}
	for _, f := range sampled.Facts {
		if _, ok := inExhaustive[f.Triple]; !ok {
			t.Fatalf("sampled fact %v (rank %d) missing from exhaustive result", f.Triple, f.Rank)
		}
	}
	if len(sampled.Facts) > len(exhaustive.Facts) {
		t.Error("sampling found more facts than the exhaustive sweep")
	}
}

func TestExhaustiveDiscoverRulesPrune(t *testing.T) {
	ds, m := tinyTrained(t)
	rel := ds.Train.RelationIDs()[0]
	without, statsW, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{
		TopN: 20, Relations: []kg.RelationID{rel},
	})
	if err != nil {
		t.Fatal(err)
	}
	withRules, statsR, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{
		TopN:      20,
		Relations: []kg.RelationID{rel},
		Rules:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if statsR.Pruned == 0 {
		t.Error("rules pruned nothing")
	}
	if statsR.Generated >= statsW.Generated {
		t.Errorf("rules did not reduce candidates: %d vs %d", statsR.Generated, statsW.Generated)
	}
	// Rule-filtered output is a subset of the unfiltered output.
	inFull := make(map[kg.Triple]struct{}, len(without.Facts))
	for _, f := range without.Facts {
		inFull[f.Triple] = struct{}{}
	}
	for _, f := range withRules.Facts {
		if _, ok := inFull[f.Triple]; !ok {
			t.Fatalf("rule-filtered fact %v not in unfiltered result", f.Triple)
		}
	}
}

func TestExhaustiveDiscoverBudgetGuard(t *testing.T) {
	ds, m := tinyTrained(t)
	_, _, err := ExhaustiveDiscover(context.Background(), m, ds.Train, ExhaustiveOptions{
		TopN:          10,
		MaxCandidates: 10, // far below the complement size
	})
	if err == nil {
		t.Fatal("expected the candidate-budget guard to fire")
	}
}

func TestExhaustiveDiscoverContextCancel(t *testing.T) {
	ds, m := tinyTrained(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ExhaustiveDiscover(ctx, m, ds.Train, ExhaustiveOptions{TopN: 10}); err == nil {
		t.Fatal("expected context error")
	}
}

func TestExtendedStrategyByName(t *testing.T) {
	for _, name := range AllStrategyNames() {
		s, err := ExtendedStrategyByName(name)
		if err != nil {
			t.Fatalf("ExtendedStrategyByName(%s): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("strategy %q reports %q", name, s.Name())
		}
	}
	if _, err := ExtendedStrategyByName("nope"); err == nil {
		t.Error("accepted unknown strategy")
	}
	// The paper's list must stay pristine: extensions are separate.
	for _, name := range StrategyNames() {
		if name == "inverse_degree" || name == "mixed_exploration" {
			t.Error("extension leaked into the paper's strategy list")
		}
	}
}

func TestInverseDegreeTargetsLongTail(t *testing.T) {
	g := ruleTestGraph(t)
	// Add a hub to create a popularity spread.
	for i := 0; i < 6; i++ {
		g.AddNamed("alice", "knows", string(rune('x'+i)))
	}
	s := NewInverseDegree()
	subs, sw, _, _ := weights(s, g, 0)
	// alice (the hub) must have the smallest subject weight.
	var aliceW, maxW float64
	for i, e := range subs {
		if g.Entities.Name(int32(e)) == "alice" {
			aliceW = sw[i]
		}
		if sw[i] > maxW {
			maxW = sw[i]
		}
	}
	if aliceW == 0 || aliceW >= maxW {
		t.Errorf("hub weight %g should be positive and the smallest (max %g)", aliceW, maxW)
	}
}

func TestMixedExplorationInterpolates(t *testing.T) {
	g := ruleTestGraph(t)
	exploit := normalizeMass(degreeStat(g))
	explore := normalizeMass(inverseDegreeStat(g))
	mixed := NewMixedExploration().Statistic(g)
	// ε = 0.3 of the mass goes by INVERSE DEGREE, the rest by GRAPH DEGREE.
	for i := range mixed {
		want := 0.7*exploit[i] + 0.3*explore[i]
		if diff := mixed[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("mixed weight of entity %d = %g, want %g", i, mixed[i], want)
		}
	}
}
