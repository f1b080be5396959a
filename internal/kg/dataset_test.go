package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomGraph(seed int64, nEnt, nRel, nTriples int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	for i := 0; i < nEnt; i++ {
		g.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nRel; i++ {
		g.Relations.Intern(fmt.Sprintf("r%d", i))
	}
	for g.Len() < nTriples {
		g.Add(Triple{
			S: EntityID(rng.Intn(nEnt)),
			R: RelationID(rng.Intn(nRel)),
			O: EntityID(rng.Intn(nEnt)),
		})
	}
	return g
}

func TestSplitFractions(t *testing.T) {
	g := randomGraph(1, 50, 5, 1000)
	ds, err := Split("s", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	total := ds.Train.Len() + ds.Valid.Len() + ds.Test.Len()
	if total != g.Len() {
		t.Fatalf("split loses triples: %d != %d", total, g.Len())
	}
	if ds.Valid.Len() != 100 {
		t.Errorf("valid = %d, want 100", ds.Valid.Len())
	}
	if ds.Test.Len() != 200 {
		t.Errorf("test = %d, want 200", ds.Test.Len())
	}
}

func TestSplitDisjoint(t *testing.T) {
	g := randomGraph(2, 40, 4, 600)
	ds, err := Split("s", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 11})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for _, tr := range ds.Valid.Triples() {
		if ds.Train.Contains(tr) || ds.Test.Contains(tr) {
			t.Fatalf("triple %v appears in multiple splits", tr)
		}
	}
	for _, tr := range ds.Test.Triples() {
		if ds.Train.Contains(tr) {
			t.Fatalf("test triple %v leaked into train", tr)
		}
	}
}

func TestSplitNoUnseen(t *testing.T) {
	g := randomGraph(3, 200, 8, 800) // sparse: unseen entities likely without the guard
	ds, err := Split("s", g, SplitOptions{ValidFrac: 0.2, TestFrac: 0.2, Seed: 5})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	seenE := make(map[EntityID]bool)
	seenR := make(map[RelationID]bool)
	for _, tr := range ds.Train.Triples() {
		seenE[tr.S], seenE[tr.O], seenR[tr.R] = true, true, true
	}
	check := func(name string, g *Graph) {
		for _, tr := range g.Triples() {
			if !seenE[tr.S] || !seenE[tr.O] || !seenR[tr.R] {
				t.Fatalf("%s triple %v references vocabulary unseen in train", name, tr)
			}
		}
	}
	check("valid", ds.Valid)
	check("test", ds.Test)
}

func TestSplitDeterministic(t *testing.T) {
	g := randomGraph(4, 30, 3, 400)
	a, err := Split("s", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split("s", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Train.Len() != b.Train.Len() {
		t.Fatalf("non-deterministic split sizes")
	}
	for _, tr := range a.Train.Triples() {
		if !b.Train.Contains(tr) {
			t.Fatalf("same seed produced different train split")
		}
	}
}

func TestSplitRejectsBadFractions(t *testing.T) {
	g := randomGraph(5, 10, 2, 50)
	for _, opts := range []SplitOptions{
		{ValidFrac: -0.1, TestFrac: 0.1},
		{ValidFrac: 0.6, TestFrac: 0.5},
	} {
		if _, err := Split("s", g, opts); err == nil {
			t.Errorf("Split accepted invalid fractions %+v", opts)
		}
	}
}

func TestMetadata(t *testing.T) {
	g := randomGraph(6, 25, 4, 300)
	ds, err := Split("meta-ds", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Metadata()
	if m.Name != "meta-ds" {
		t.Errorf("name = %q", m.Name)
	}
	if m.Train != ds.Train.Len() || m.Validation != ds.Valid.Len() || m.Test != ds.Test.Len() {
		t.Errorf("metadata split sizes wrong: %+v", m)
	}
	if m.Entities != 25 || m.Relations != 4 {
		t.Errorf("metadata vocab sizes wrong: %+v", m)
	}
}

func TestDatasetAll(t *testing.T) {
	g := randomGraph(7, 20, 3, 200)
	ds, err := Split("s", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := ds.All()
	if all.Len() != g.Len() {
		t.Fatalf("All() has %d triples, want %d", all.Len(), g.Len())
	}
}
