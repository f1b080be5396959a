package kg

import (
	"math/rand"
	"reflect"
	"testing"
)

// checkAgainstRebuild asserts that every index and side table of g matches a
// graph rebuilt from scratch from g's current triples: the triple set, the
// by-relation index, per-relation unique subject/object lists and counts,
// global subject/object counts, the (s, r) adjacency, and membership.
func checkAgainstRebuild(t *testing.T, g *Graph) {
	t.Helper()
	fresh := NewGraphWithDicts(g.Entities, g.Relations)
	for _, tr := range g.Triples() {
		fresh.Add(tr)
	}

	if g.Len() != fresh.Len() {
		t.Fatalf("Len: got %d want %d", g.Len(), fresh.Len())
	}
	for _, tr := range fresh.Triples() {
		if !g.Contains(tr) {
			t.Fatalf("membership: %v missing from mutated graph", tr)
		}
	}
	for _, tr := range g.Triples() {
		if !fresh.Contains(tr) {
			t.Fatalf("membership: %v present in mutated graph but not rebuild", tr)
		}
	}

	if got, want := g.RelationIDs(), fresh.RelationIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RelationIDs: got %v want %v", got, want)
	}
	for _, r := range fresh.RelationIDs() {
		gs := append([]Triple(nil), g.RelationTriples(r)...)
		fs := append([]Triple(nil), fresh.RelationTriples(r)...)
		SortTriples(gs)
		SortTriples(fs)
		if !reflect.DeepEqual(gs, fs) {
			t.Fatalf("RelationTriples(%d): got %v want %v", r, gs, fs)
		}
		for _, side := range []Side{SubjectSide, ObjectSide} {
			if got, want := g.SideEntities(r, side), fresh.SideEntities(r, side); !reflect.DeepEqual(got, want) {
				t.Fatalf("SideEntities(%d, %v): got %v want %v", r, side, got, want)
			}
			for _, e := range fresh.SideEntities(r, side) {
				if got, want := g.SideCount(r, side, e), fresh.SideCount(r, side, e); got != want {
					t.Fatalf("SideCount(%d, %v, %d): got %d want %d", r, side, e, got, want)
				}
			}
		}
	}
	for e := 0; e < g.NumEntities(); e++ {
		id := EntityID(e)
		if got, want := g.SubjectCount(id), fresh.SubjectCount(id); got != want {
			t.Fatalf("SubjectCount(%d): got %d want %d", e, got, want)
		}
		if got, want := g.ObjectCount(id), fresh.ObjectCount(id); got != want {
			t.Fatalf("ObjectCount(%d): got %d want %d", e, got, want)
		}
	}
	for e := 0; e < g.NumEntities(); e++ {
		for r := 0; r < g.NumRelations(); r++ {
			got := g.ObjectsOf(EntityID(e), RelationID(r))
			want := fresh.ObjectsOf(EntityID(e), RelationID(r))
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ObjectsOf(%d, %d): got %v want %v", e, r, got, want)
			}
		}
	}
}

func TestDeleteBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNamed("a", "r", "b")
	if g.Delete(Triple{S: 99, R: 99, O: 99}) {
		t.Fatal("Delete of absent triple reported true")
	}
	if !g.Delete(a) {
		t.Fatal("Delete of present triple reported false")
	}
	if g.Delete(a) {
		t.Fatal("second Delete of same triple reported true")
	}
	if g.Len() != 0 || g.Contains(a) {
		t.Fatalf("graph not empty after delete: len=%d contains=%v", g.Len(), g.Contains(a))
	}
	if got := len(g.RelationIDs()); got != 0 {
		t.Fatalf("RelationIDs after deleting last triple of relation: got %d entries", got)
	}
	if !g.Add(a) {
		t.Fatal("re-Add after Delete reported false")
	}
	if !g.Contains(a) || g.Len() != 1 {
		t.Fatal("re-Add after Delete did not restore the triple")
	}
}

// TestDeleteMatchesRebuild interleaves random adds and deletes and checks
// after each phase that every index matches a from-scratch rebuild.
func TestDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGraph()
	const nEnt, nRel = 12, 4
	for e := 0; e < nEnt; e++ {
		g.Entities.Intern(string(rune('a' + e)))
	}
	for r := 0; r < nRel; r++ {
		g.Relations.Intern(string(rune('p' + r)))
	}
	randTriple := func() Triple {
		return Triple{
			S: EntityID(rng.Intn(nEnt)),
			R: RelationID(rng.Intn(nRel)),
			O: EntityID(rng.Intn(nEnt)),
		}
	}
	var present []Triple
	for step := 0; step < 400; step++ {
		if len(present) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(present))
			tr := present[i]
			if !g.Delete(tr) {
				t.Fatalf("step %d: Delete(%v) reported false for present triple", step, tr)
			}
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
		} else {
			tr := randTriple()
			if g.Add(tr) {
				present = append(present, tr)
			}
		}
		if step%25 == 0 {
			checkAgainstRebuild(t, g)
		}
	}
	checkAgainstRebuild(t, g)

	// Drain the graph completely and verify all indexes are empty.
	for _, tr := range append([]Triple(nil), g.Triples()...) {
		if !g.Delete(tr) {
			t.Fatalf("drain: Delete(%v) reported false", tr)
		}
	}
	if g.Len() != 0 {
		t.Fatalf("drain: %d triples remain", g.Len())
	}
	checkAgainstRebuild(t, g)
}
