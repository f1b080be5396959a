package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// exhaustiveOracle is ExhaustiveDiscover written from its definitions, one
// triple at a time and without the graph index, the ranker or the relation
// loop: the complement of g over the whole entity vocabulary; under rules,
// CHAI's three rules checked per triple against g's triple list (no
// self-loop; s a subject and o an object of r somewhere in g; and no new
// object for a subject of a relation with at most one object per subject on
// average); every candidate scored with Score and ranked against all its
// object-side corruptions by the mean tie rule, 1 + greater + ⌊equal/2⌋,
// skipping corruptions that are triples of g under the filtered protocol.
// It returns the candidates within topN, best first, and how many were
// scored.
func exhaustiveOracle(m kge.Model, g *kg.Graph, topN int, rules, filtered bool) ([]Fact, int) {
	known := map[kg.Triple]bool{}
	type side struct {
		r kg.RelationID
		e kg.EntityID
	}
	isSubject, isObject := map[side]bool{}, map[side]bool{}
	triples, subjects := map[kg.RelationID]int{}, map[kg.RelationID]int{}
	var relations []kg.RelationID
	for _, t := range g.Triples() {
		known[t] = true
		if triples[t.R] == 0 {
			relations = append(relations, t.R)
		}
		triples[t.R]++
		if !isSubject[side{t.R, t.S}] {
			subjects[t.R]++
		}
		isSubject[side{t.R, t.S}] = true
		isObject[side{t.R, t.O}] = true
	}
	slices.Sort(relations)

	n := g.NumEntities()
	var facts []Fact
	generated := 0
	for _, r := range relations {
		functional := float64(triples[r])/float64(subjects[r]) <= 1.0
		for s := kg.EntityID(0); int(s) < n; s++ {
			for o := kg.EntityID(0); int(o) < n; o++ {
				t := kg.Triple{S: s, R: r, O: o}
				if known[t] {
					continue
				}
				if rules && (s == o || !isSubject[side{r, s}] || !isObject[side{r, o}] ||
					(functional && isSubject[side{r, s}])) {
					continue
				}
				generated++
				target := m.Score(t)
				greater, equal := 0, 0
				for c := kg.EntityID(0); int(c) < n; c++ {
					corrupt := kg.Triple{S: s, R: r, O: c}
					if c == o || (filtered && known[corrupt]) {
						continue
					}
					switch sc := m.Score(corrupt); {
					case sc > target:
						greater++
					case sc == target:
						equal++
					}
				}
				if rank := 1 + greater + equal/2; rank <= topN {
					facts = append(facts, Fact{Triple: t, Rank: rank})
				}
			}
		}
	}
	SortFactsByRank(facts)
	return facts, generated
}

// oracleGraphs are the tiny graphs the oracle runs on: ruleTestGraph, where
// every relation is functional; the same graph made non-functional with a
// self-loop; and a seeded random graph with an entity in no triple, one
// functional relation and two that are not.
func oracleGraphs(t *testing.T) map[string]*kg.Graph {
	t.Helper()
	loose := ruleTestGraph(t)
	loose.AddNamed("alice", "knows", "carol")
	loose.AddNamed("carol", "knows", "alice")
	loose.AddNamed("bob", "lives_in", "paris")
	loose.AddNamed("carol", "knows", "carol")

	random := kg.NewGraph()
	for i := 0; i < 10; i++ {
		random.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for _, r := range []string{"many", "also_many", "functional"} {
		random.Relations.Intern(r)
	}
	rng := rand.New(rand.NewSource(4))
	var ts []kg.Triple
	for i := 0; i < 18; i++ {
		ts = append(ts, kg.Triple{S: kg.EntityID(rng.Intn(9)), R: kg.RelationID(rng.Intn(2)), O: kg.EntityID(rng.Intn(9))})
	}
	for s := kg.EntityID(0); s < 6; s++ {
		ts = append(ts, kg.Triple{S: s, R: 2, O: kg.EntityID(rng.Intn(9))})
	}
	random.AddAll(ts)
	return map[string]*kg.Graph{"rule": ruleTestGraph(t), "loose": loose, "random": random}
}

// oracleModel returns a model of the given family over g's vocabulary with
// its parameters moved off initialization. "ties" is DistMult with relation
// 0's row zeroed, so every score under relation 0 is 0 and every rank there
// comes from the tie rule.
func oracleModel(t *testing.T, name string, g *kg.Graph) kge.Model {
	t.Helper()
	family := name
	if name == "ties" {
		family = "distmult"
	}
	m, err := kge.New(family, kge.Config{NumEntities: g.NumEntities(), NumRelations: g.NumRelations(), Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] += float32(rng.NormFloat64()) * 0.3
		}
	}
	if name == "ties" {
		clear(m.Params().Get("relation").M.Row(0))
	}
	return m
}

// TestExhaustiveDiscoverMatchesOracle holds ExhaustiveDiscover to
// exhaustiveOracle on tiny graphs: the identical facts with identical ranks,
// and the same counts, for raw and filtered ranking with and without rules,
// over every model family and an all-ties model.
func TestExhaustiveDiscoverMatchesOracle(t *testing.T) {
	for gname, g := range oracleGraphs(t) {
		n := int64(g.NumEntities())
		complement := n*n*int64(len(g.RelationIDs())) - int64(g.Len())
		topN := g.NumEntities() / 2
		for _, mname := range append(kge.ModelNames(), "ties") {
			m := oracleModel(t, mname, g)
			for _, filtered := range []bool{false, true} {
				for _, rules := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/filtered=%v/rules=%v", gname, mname, filtered, rules)
					res, stats, err := ExhaustiveDiscover(context.Background(), m, g, ExhaustiveOptions{
						TopN: topN, Rules: rules, RankFiltered: filtered, Workers: 2,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, generated := exhaustiveOracle(m, g, topN, rules, filtered)
					if !slices.Equal(res.Facts, want) {
						t.Errorf("%s: facts\n got %v\nwant %v", name, res.Facts, want)
					}
					if stats.Generated != generated || stats.ComplementSize != complement ||
						stats.Pruned != complement-int64(generated) {
						t.Errorf("%s: stats %+v, want generated %d of a %d-triple complement", name, *stats, generated, complement)
					}
				}
			}
		}
	}
}
