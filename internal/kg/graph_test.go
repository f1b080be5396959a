package kg

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictInternIsIdempotent(t *testing.T) {
	d := NewDict()
	a := d.Intern("alice")
	b := d.Intern("bob")
	if a == b {
		t.Fatalf("distinct names got same ID %d", a)
	}
	if again := d.Intern("alice"); again != a {
		t.Errorf("re-intern of alice: got %d, want %d", again, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if d.Name(a) != "alice" || d.Name(b) != "bob" {
		t.Errorf("names roundtrip failed: %q, %q", d.Name(a), d.Name(b))
	}
}

func TestDictLookupDoesNotIntern(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("ghost"); ok {
		t.Fatal("Lookup found a name that was never interned")
	}
	if d.Len() != 0 {
		t.Errorf("Lookup interned: Len = %d, want 0", d.Len())
	}
}

func TestDictIDsAreDense(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		id := d.Intern(string(rune('a' + i%26)))
		if int(id) >= d.Len() {
			t.Fatalf("ID %d >= Len %d", id, d.Len())
		}
	}
}

func TestDictNamePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range ID")
		}
	}()
	NewDict().Name(0)
}

func TestGraphAddAndContains(t *testing.T) {
	g := NewGraph()
	t1 := g.AddNamed("a", "likes", "b")
	if !g.Contains(t1) {
		t.Fatal("graph does not contain added triple")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	// Duplicate add is a no-op.
	if g.Add(t1) {
		t.Error("duplicate Add reported insertion")
	}
	if g.Len() != 1 {
		t.Errorf("after duplicate add Len = %d, want 1", g.Len())
	}
	if g.Contains(Triple{S: 9, R: 9, O: 9}) {
		t.Error("graph claims to contain an absent triple")
	}
}

func TestGraphCounts(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r1", "b")
	g.AddNamed("a", "r1", "c")
	g.AddNamed("b", "r2", "a")
	a, _ := g.Entities.Lookup("a")
	b, _ := g.Entities.Lookup("b")

	if got := g.SubjectCount(EntityID(a)); got != 2 {
		t.Errorf("SubjectCount(a) = %d, want 2", got)
	}
	if got := g.ObjectCount(EntityID(a)); got != 1 {
		t.Errorf("ObjectCount(a) = %d, want 1", got)
	}
	if got := g.Degree(EntityID(a)); got != 3 {
		t.Errorf("Degree(a) = %d, want 3", got)
	}
	if got := g.Degree(EntityID(b)); got != 2 {
		t.Errorf("Degree(b) = %d, want 2", got)
	}
	// Entity beyond any count table has zero counts.
	if got := g.Degree(EntityID(1000)); got != 0 {
		t.Errorf("Degree(unknown) = %d, want 0", got)
	}
}

func TestGraphSideEntities(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r", "b")
	g.AddNamed("a", "r", "c")
	g.AddNamed("d", "r", "b")
	g.AddNamed("x", "other", "y")
	r, _ := g.Relations.Lookup("r")

	subs := g.SideEntities(RelationID(r), SubjectSide)
	if len(subs) != 2 {
		t.Fatalf("unique subjects = %d, want 2", len(subs))
	}
	objs := g.SideEntities(RelationID(r), ObjectSide)
	if len(objs) != 2 {
		t.Fatalf("unique objects = %d, want 2", len(objs))
	}
	a, _ := g.Entities.Lookup("a")
	if got := g.SideCount(RelationID(r), SubjectSide, EntityID(a)); got != 2 {
		t.Errorf("SideCount(r, subject, a) = %d, want 2", got)
	}
	b, _ := g.Entities.Lookup("b")
	if got := g.SideCount(RelationID(r), ObjectSide, EntityID(b)); got != 2 {
		t.Errorf("SideCount(r, object, b) = %d, want 2", got)
	}
}

func TestGraphSideTablesRefreshAfterMutation(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r", "b")
	r, _ := g.Relations.Lookup("r")
	if n := len(g.SideEntities(RelationID(r), SubjectSide)); n != 1 {
		t.Fatalf("subjects = %d, want 1", n)
	}
	g.AddNamed("c", "r", "b") // mutate after a query
	if n := len(g.SideEntities(RelationID(r), SubjectSide)); n != 2 {
		t.Errorf("subjects after mutation = %d, want 2 (stale side tables)", n)
	}
}

func TestGraphRelationIDsSorted(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r2", "b")
	g.AddNamed("a", "r0", "b")
	g.AddNamed("a", "r1", "b")
	ids := g.RelationIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("RelationIDs not strictly ascending: %v", ids)
		}
	}
	if len(ids) != 3 {
		t.Errorf("RelationIDs = %v, want 3 ids", ids)
	}
}

func TestMergeUnion(t *testing.T) {
	g1 := NewGraph()
	g1.AddNamed("a", "r", "b")
	g2 := NewGraphWithDicts(g1.Entities, g1.Relations)
	g2.AddNamed("a", "r", "b") // shared triple
	g2.AddNamed("b", "r", "a")

	m := Merge(g1, g2)
	if m.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", m.Len())
	}
	for _, tr := range g1.Triples() {
		if !m.Contains(tr) {
			t.Errorf("merge missing %v", tr)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r", "b")
	c := g.Clone()
	g.AddNamed("x", "r", "y")
	if c.Len() != 1 {
		t.Errorf("clone observed mutation of original: Len = %d, want 1", c.Len())
	}
}

func TestTripleCorrupted(t *testing.T) {
	tr := Triple{S: 1, R: 2, O: 3}
	if got := tr.Corrupted(SubjectSide, 7); got != (Triple{S: 7, R: 2, O: 3}) {
		t.Errorf("subject corruption = %v", got)
	}
	if got := tr.Corrupted(ObjectSide, 7); got != (Triple{S: 1, R: 2, O: 7}) {
		t.Errorf("object corruption = %v", got)
	}
	if tr != (Triple{S: 1, R: 2, O: 3}) {
		t.Error("Corrupted mutated its receiver")
	}
}

func TestSortTriplesOrdering(t *testing.T) {
	ts := []Triple{{2, 0, 0}, {1, 2, 0}, {1, 1, 5}, {1, 1, 2}}
	SortTriples(ts)
	want := []Triple{{1, 1, 2}, {1, 1, 5}, {1, 2, 0}, {2, 0, 0}}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

// Property: for any random set of triples, the graph contains exactly the
// distinct triples added, and per-side counts sum to the triple count.
func TestGraphPropertyCountsConsistent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		distinct := make(map[Triple]struct{})
		for i := 0; i < int(n)+1; i++ {
			tr := Triple{
				S: EntityID(rng.Intn(10)),
				R: RelationID(rng.Intn(4)),
				O: EntityID(rng.Intn(10)),
			}
			g.Add(tr)
			distinct[tr] = struct{}{}
		}
		if g.Len() != len(distinct) {
			return false
		}
		var subSum, objSum int64
		for e := EntityID(0); e < 10; e++ {
			subSum += g.SubjectCount(e)
			objSum += g.ObjectCount(e)
		}
		return subSum == int64(g.Len()) && objSum == int64(g.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: side tables partition the relation's triples — the sum of
// SideCount over SideEntities equals the number of triples of the relation.
func TestGraphPropertySideCountsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		for i := 0; i < 200; i++ {
			g.Add(Triple{
				S: EntityID(rng.Intn(20)),
				R: RelationID(rng.Intn(5)),
				O: EntityID(rng.Intn(20)),
			})
		}
		for _, r := range g.RelationIDs() {
			var sum int64
			for _, e := range g.SideEntities(r, SubjectSide) {
				sum += g.SideCount(r, SubjectSide, e)
			}
			if sum != int64(len(g.RelationTriples(r))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGraphConcurrentFirstQueries: the first queries a graph ever answers may
// come from many goroutines at once, with no warm-up call before sharing it.
// Run under -race.
func TestGraphConcurrentFirstQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGraph()
	for i := 0; i < 2000; i++ {
		g.Add(Triple{S: EntityID(rng.Intn(200)), R: RelationID(rng.Intn(6)), O: EntityID(rng.Intn(200))})
	}
	probe := g.Triples()[0]
	var wg sync.WaitGroup
	counts := make([]int64, 8)
	for w := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w % 4 {
			case 0:
				counts[w] = int64(len(g.SideEntities(probe.R, SubjectSide)))
			case 1:
				counts[w] = int64(len(g.ObjectsOf(probe.S, probe.R)))
			case 2:
				counts[w] = g.SideCount(probe.R, ObjectSide, probe.O)
			default:
				if g.Contains(probe) {
					counts[w] = 1
				}
			}
		}()
	}
	wg.Wait()
	for w, c := range counts {
		if c < 1 {
			t.Errorf("goroutine %d: query %d answered %d, want at least 1", w, w%4, c)
		}
	}
}
