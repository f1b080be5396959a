package kg_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
	"repro/internal/synth"
)

// oracleOf returns an oracle holding g's triples in g's order.
func oracleOf(g *kg.Graph) *oracleGraph {
	o := newOracle(g.Entities, g.Relations)
	for _, tr := range g.Triples() {
		o.Add(tr)
	}
	return o
}

// TestAddThenDeleteIsIdentity adds a batch to a graph and deletes what it
// added: every query, the order of Triples and RelationTriples included,
// must answer as on the untouched graph. The fixture, one row per relation
// in insertion order, and the batch:
//
//	G:   r0: (a,b) (a,c) (b,c) (c,a)
//	     r1: (c,a) (b,b)
//
//	ADD  (a,r0,d)  a new object in a's row, between (a,c) and (b,c)
//	ADD  (d,r0,a)  a new subject row after c's
//	ADD  (b,r0,c)  already in G: not added, and not deleted below
//	ADD  (a,r0,d)  a repeat of the batch: not added twice
//	ADD  (e,r2,e)  a new relation, a self-loop, a new entity
//	ADD  (a,r1,a)  a new first row of r1
//
//	DEL  the four added triples, in batch order and in reverse
//
// The batch goes in through a loop of Add and through one AddAll.
func TestAddThenDeleteIsIdentity(t *testing.T) {
	base := kg.NewGraph()
	for _, tr := range [][3]string{
		{"a", "r0", "b"}, {"a", "r0", "c"}, {"b", "r0", "c"}, {"c", "r0", "a"},
		{"c", "r1", "a"}, {"b", "r1", "b"},
	} {
		base.AddNamed(tr[0], tr[1], tr[2])
	}
	id := func(s, r, o string) kg.Triple {
		return kg.Triple{
			S: kg.EntityID(base.Entities.Intern(s)), R: kg.RelationID(base.Relations.Intern(r)),
			O: kg.EntityID(base.Entities.Intern(o)),
		}
	}
	batch := []kg.Triple{
		id("a", "r0", "d"), id("d", "r0", "a"), id("b", "r0", "c"), id("a", "r0", "d"),
		id("e", "r2", "e"), id("a", "r1", "a"),
	}
	added := []kg.Triple{batch[0], batch[1], batch[4], batch[5]}
	want := oracleOf(base)
	rng := rand.New(rand.NewSource(1))
	for _, bulk := range []bool{false, true} {
		for _, reverse := range []bool{false, true} {
			g := base.Clone()
			n := 0
			if bulk {
				n = g.AddAll(batch)
			} else {
				for _, tr := range batch {
					if g.Add(tr) {
						n++
					}
				}
			}
			if n != len(added) {
				t.Fatalf("bulk=%v: added %d triples, want %d", bulk, n, len(added))
			}
			dels := slices.Clone(added)
			if reverse {
				slices.Reverse(dels)
			}
			for _, tr := range dels {
				if !g.Delete(tr) {
					t.Fatalf("bulk=%v reverse=%v: Delete(%v) = false", bulk, reverse, tr)
				}
			}
			checkAgainstOracle(t, "add then delete", g, want, rng, true)
		}
	}
}

// TestAddThenDeleteIsIdentityTiny repeats the identity on the tiny preset's
// graph with seeded batches of fresh triples, repeats of the batch and
// triples already present, deleting the added ones in a shuffled order.
func TestAddThenDeleteIsIdentityTiny(t *testing.T) {
	base, err := synth.GenerateGraph(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	want := oracleOf(base)
	present := base.Triples()
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		g := base.Clone()
		var batch []kg.Triple
		for len(batch) < 40 {
			tr := kg.Triple{
				S: kg.EntityID(rng.Intn(g.NumEntities())), R: kg.RelationID(rng.Intn(g.NumRelations())),
				O: kg.EntityID(rng.Intn(g.NumEntities())),
			}
			switch rng.Intn(4) {
			case 0:
				tr = present[rng.Intn(len(present))]
			case 1:
				if len(batch) > 0 {
					tr = batch[rng.Intn(len(batch))]
				}
			}
			batch = append(batch, tr)
		}
		var added []kg.Triple
		for _, tr := range batch {
			if !base.Contains(tr) && !slices.Contains(added, tr) {
				added = append(added, tr)
			}
		}
		if round%2 == 0 {
			g.AddAll(batch)
		} else {
			for _, tr := range batch {
				g.Add(tr)
			}
		}
		rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
		for _, tr := range added {
			if !g.Delete(tr) {
				t.Fatalf("round %d: Delete(%v) = false for an added triple", round, tr)
			}
		}
		checkAgainstOracle(t, "add then delete", g, want, rng, round == 0)
	}
}

// TestDeleteMatchesRebuildOrder deletes a seeded share of the tiny preset's
// triples and compares every query, Triples' order included, with the graph
// AddAll builds from the remaining triples in their original order. Above
// half, the deletes also cross the point where the gaps they leave in the
// sequence numbers outnumber the triples and the index is renumbered.
func TestDeleteMatchesRebuildOrder(t *testing.T) {
	base, err := synth.GenerateGraph(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, share := range []float64{0.01, 0.3, 0.7, 1} {
		g := base.Clone()
		ts := g.Triples()
		gone := map[kg.Triple]bool{}
		for _, i := range rng.Perm(len(ts))[:int(share*float64(len(ts)))] {
			gone[ts[i]] = true
			if !g.Delete(ts[i]) {
				t.Fatalf("share %g: Delete(%v) = false for a present triple", share, ts[i])
			}
		}
		rebuilt := kg.NewGraphWithDicts(g.Entities, g.Relations)
		rebuilt.AddAll(slices.DeleteFunc(ts, func(tr kg.Triple) bool { return gone[tr] }))
		if !slices.Equal(g.Triples(), rebuilt.Triples()) {
			t.Fatalf("share %g: Triples of the deleted graph differ from its rebuild's", share)
		}
		checkAgainstOracle(t, "delete", g, oracleOf(rebuilt), rng, share == 0.3)
	}
}
