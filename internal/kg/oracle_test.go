package kg_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/kg"
	"repro/internal/synth"
)

// oracleGraph is the map-backed triple store kg.Graph used to be: a
// membership map, a by-relation map, and per-relation side tables rebuilt
// lazily behind a dirty flag or maintained incrementally once built. It is
// kept here as the oracle every query of the array-backed index is compared
// against, unchanged but for its name and its Delete: that swap-removed, and
// now removes the triple in place, so the others keep their insertion order
// as they would in a graph rebuilt without it.
type oracleGraph struct {
	Entities  *kg.Dict
	Relations *kg.Dict

	triples []kg.Triple
	set     map[kg.Triple]bool

	byRelation map[kg.RelationID][]kg.Triple

	subjectCount []int64
	objectCount  []int64

	dirty bool

	relSubjects map[kg.RelationID][]kg.EntityID
	relObjects  map[kg.RelationID][]kg.EntityID

	relSubjectCount map[kg.RelationID]map[kg.EntityID]int64
	relObjectCount  map[kg.RelationID]map[kg.EntityID]int64

	srObjects map[srKey][]kg.EntityID
}

type srKey struct {
	s kg.EntityID
	r kg.RelationID
}

func newOracle(entities, relations *kg.Dict) *oracleGraph {
	return &oracleGraph{
		Entities:   entities,
		Relations:  relations,
		set:        make(map[kg.Triple]bool),
		byRelation: make(map[kg.RelationID][]kg.Triple),
	}
}

func (g *oracleGraph) Add(t kg.Triple) bool {
	if g.set[t] {
		return false
	}
	g.set[t] = true
	g.triples = append(g.triples, t)
	g.byRelation[t.R] = append(g.byRelation[t.R], t)
	g.bump(&g.subjectCount, t.S)
	g.bump(&g.objectCount, t.O)
	if g.tablesLive() {
		g.sideAdd(t)
	} else {
		g.dirty = true
	}
	return true
}

func (g *oracleGraph) Delete(t kg.Triple) bool {
	if !g.set[t] {
		return false
	}
	delete(g.set, t)
	i := slices.Index(g.triples, t)
	g.triples = slices.Delete(g.triples, i, i+1)
	rel := g.byRelation[t.R]
	i = slices.Index(rel, t)
	if rel = slices.Delete(rel, i, i+1); len(rel) == 0 {
		delete(g.byRelation, t.R)
	} else {
		g.byRelation[t.R] = rel
	}
	g.subjectCount[t.S]--
	g.objectCount[t.O]--
	if g.tablesLive() {
		g.sideDelete(t)
	} else {
		g.dirty = true
	}
	return true
}

func (g *oracleGraph) tablesLive() bool {
	return g.relSubjects != nil && !g.dirty
}

func (g *oracleGraph) sideAdd(t kg.Triple) {
	sc := g.relSubjectCount[t.R]
	if sc == nil {
		sc = make(map[kg.EntityID]int64)
		g.relSubjectCount[t.R] = sc
	}
	sc[t.S]++
	if sc[t.S] == 1 {
		g.relSubjects[t.R] = insertSorted(g.relSubjects[t.R], t.S)
	}
	oc := g.relObjectCount[t.R]
	if oc == nil {
		oc = make(map[kg.EntityID]int64)
		g.relObjectCount[t.R] = oc
	}
	oc[t.O]++
	if oc[t.O] == 1 {
		g.relObjects[t.R] = insertSorted(g.relObjects[t.R], t.O)
	}
	k := srKey{t.S, t.R}
	g.srObjects[k] = insertSorted(g.srObjects[k], t.O)
}

func (g *oracleGraph) sideDelete(t kg.Triple) {
	sc := g.relSubjectCount[t.R]
	sc[t.S]--
	if sc[t.S] == 0 {
		delete(sc, t.S)
		g.relSubjects[t.R] = removeSorted(g.relSubjects[t.R], t.S)
	}
	if len(sc) == 0 {
		delete(g.relSubjectCount, t.R)
		delete(g.relSubjects, t.R)
	}
	oc := g.relObjectCount[t.R]
	oc[t.O]--
	if oc[t.O] == 0 {
		delete(oc, t.O)
		g.relObjects[t.R] = removeSorted(g.relObjects[t.R], t.O)
	}
	if len(oc) == 0 {
		delete(g.relObjectCount, t.R)
		delete(g.relObjects, t.R)
	}
	k := srKey{t.S, t.R}
	if os := removeSorted(g.srObjects[k], t.O); len(os) == 0 {
		delete(g.srObjects, k)
	} else {
		g.srObjects[k] = os
	}
}

func insertSorted(s []kg.EntityID, e kg.EntityID) []kg.EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func removeSorted(s []kg.EntityID, e kg.EntityID) []kg.EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	if i >= len(s) || s[i] != e {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

func (g *oracleGraph) bump(counts *[]int64, e kg.EntityID) {
	for int(e) >= len(*counts) {
		*counts = append(*counts, 0)
	}
	(*counts)[e]++
}

func (g *oracleGraph) AddNamed(s, r, o string) kg.Triple {
	t := kg.Triple{
		S: kg.EntityID(g.Entities.Intern(s)),
		R: kg.RelationID(g.Relations.Intern(r)),
		O: kg.EntityID(g.Entities.Intern(o)),
	}
	g.Add(t)
	return t
}

func (g *oracleGraph) Contains(t kg.Triple) bool { return g.set[t] }

func (g *oracleGraph) Len() int { return len(g.triples) }

func (g *oracleGraph) Triples() []kg.Triple { return g.triples }

func (g *oracleGraph) RelationTriples(r kg.RelationID) []kg.Triple { return g.byRelation[r] }

func (g *oracleGraph) RelationIDs() []kg.RelationID {
	out := make([]kg.RelationID, 0, len(g.byRelation))
	for r := range g.byRelation {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *oracleGraph) SubjectCount(e kg.EntityID) int64 {
	if int(e) >= len(g.subjectCount) {
		return 0
	}
	return g.subjectCount[e]
}

func (g *oracleGraph) ObjectCount(e kg.EntityID) int64 {
	if int(e) >= len(g.objectCount) {
		return 0
	}
	return g.objectCount[e]
}

func (g *oracleGraph) Degree(e kg.EntityID) int64 {
	return g.SubjectCount(e) + g.ObjectCount(e)
}

func (g *oracleGraph) rebuildSideTables() {
	if !g.dirty && g.relSubjects != nil {
		return
	}
	g.relSubjects = make(map[kg.RelationID][]kg.EntityID, len(g.byRelation))
	g.relObjects = make(map[kg.RelationID][]kg.EntityID, len(g.byRelation))
	g.relSubjectCount = make(map[kg.RelationID]map[kg.EntityID]int64, len(g.byRelation))
	g.relObjectCount = make(map[kg.RelationID]map[kg.EntityID]int64, len(g.byRelation))
	g.srObjects = make(map[srKey][]kg.EntityID, len(g.triples))
	for r, ts := range g.byRelation {
		sc := make(map[kg.EntityID]int64)
		oc := make(map[kg.EntityID]int64)
		for _, t := range ts {
			sc[t.S]++
			oc[t.O]++
			k := srKey{t.S, t.R}
			g.srObjects[k] = append(g.srObjects[k], t.O)
		}
		g.relSubjectCount[r] = sc
		g.relObjectCount[r] = oc
		g.relSubjects[r] = sortedKeys(sc)
		g.relObjects[r] = sortedKeys(oc)
	}
	for _, os := range g.srObjects {
		sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
	}
	g.dirty = false
}

func (g *oracleGraph) ObjectsOf(s kg.EntityID, r kg.RelationID) []kg.EntityID {
	g.rebuildSideTables()
	return g.srObjects[srKey{s, r}]
}

func sortedKeys(m map[kg.EntityID]int64) []kg.EntityID {
	out := make([]kg.EntityID, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *oracleGraph) SideEntities(r kg.RelationID, side kg.Side) []kg.EntityID {
	g.rebuildSideTables()
	if side == kg.SubjectSide {
		return g.relSubjects[r]
	}
	return g.relObjects[r]
}

func (g *oracleGraph) SideCount(r kg.RelationID, side kg.Side, e kg.EntityID) int64 {
	g.rebuildSideTables()
	if side == kg.SubjectSide {
		return g.relSubjectCount[r][e]
	}
	return g.relObjectCount[r][e]
}

func (g *oracleGraph) Clone() *oracleGraph {
	c := newOracle(g.Entities, g.Relations)
	for _, t := range g.triples {
		c.Add(t)
	}
	return c
}

func oracleMerge(graphs ...*oracleGraph) *oracleGraph {
	out := newOracle(graphs[0].Entities, graphs[0].Relations)
	for _, g := range graphs {
		for _, t := range g.Triples() {
			out.Add(t)
		}
	}
	return out
}

// sameEntities compares two ascending entity lists, treating nil and empty
// as equal.
func sameEntities(a, b []kg.EntityID) bool {
	return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b))
}

// checkAgainstOracle compares every query of g with o's answer: sizes,
// insertion order of the triple list and of each relation's list, membership
// of every present triple and of absent ones next to them, the (s, r)
// adjacency, both sides' entity lists and per-relation counts, and the
// global subject, object and degree counts. every also probes every
// (entity, relation) pair, not only the present subjects and a sample.
func checkAgainstOracle(t *testing.T, step string, g *kg.Graph, o *oracleGraph, rng *rand.Rand, every bool) {
	t.Helper()
	if g.Len() != o.Len() {
		t.Fatalf("%s: Len %d, oracle %d", step, g.Len(), o.Len())
	}
	if !slices.Equal(g.Triples(), o.Triples()) {
		t.Fatalf("%s: Triples order differs from the oracle", step)
	}
	if got, want := g.RelationIDs(), o.RelationIDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: RelationIDs %v, oracle %v", step, got, want)
	}
	nEnt, nRel := g.NumEntities(), g.NumRelations()
	for _, tr := range o.Triples() {
		if !g.Contains(tr) {
			t.Fatalf("%s: Contains(%v) false for a present triple", step, tr)
		}
		for _, near := range []kg.Triple{
			{S: tr.S, R: tr.R, O: (tr.O + 1) % kg.EntityID(nEnt)},
			{S: (tr.S + 1) % kg.EntityID(nEnt), R: tr.R, O: tr.O},
			{S: tr.S, R: (tr.R + 1) % kg.RelationID(nRel), O: tr.O},
		} {
			if got, want := g.Contains(near), o.Contains(near); got != want {
				t.Fatalf("%s: Contains(%v) = %v, oracle %v", step, near, got, want)
			}
		}
	}
	for i := 0; i < 200; i++ {
		tr := kg.Triple{S: kg.EntityID(rng.Intn(nEnt + 2)), R: kg.RelationID(rng.Intn(nRel + 1)), O: kg.EntityID(rng.Intn(nEnt + 2))}
		if got, want := g.Contains(tr), o.Contains(tr); got != want {
			t.Fatalf("%s: Contains(%v) = %v, oracle %v", step, tr, got, want)
		}
	}
	for r := kg.RelationID(0); int(r) <= nRel; r++ {
		if !slices.Equal(g.RelationTriples(r), o.RelationTriples(r)) {
			t.Fatalf("%s: RelationTriples(%d) differs from the oracle, order included", step, r)
		}
		for _, side := range []kg.Side{kg.SubjectSide, kg.ObjectSide} {
			want := o.SideEntities(r, side)
			if got := g.SideEntities(r, side); !sameEntities(got, want) {
				t.Fatalf("%s: SideEntities(%d, %v) = %v, oracle %v", step, r, side, got, want)
			}
			for _, e := range want {
				if got, want := g.SideCount(r, side, e), o.SideCount(r, side, e); got != want {
					t.Fatalf("%s: SideCount(%d, %v, %d) = %d, oracle %d", step, r, side, e, got, want)
				}
			}
			for i := 0; i < 20; i++ {
				e := kg.EntityID(rng.Intn(nEnt + 2))
				if got, want := g.SideCount(r, side, e), o.SideCount(r, side, e); got != want {
					t.Fatalf("%s: SideCount(%d, %v, %d) = %d, oracle %d", step, r, side, e, got, want)
				}
			}
		}
		probe := o.SideEntities(r, kg.SubjectSide)
		if every {
			probe = nil
			for e := 0; e < nEnt+2; e++ {
				probe = append(probe, kg.EntityID(e))
			}
		} else {
			probe = append(slices.Clip(probe), o.SideEntities(r, kg.ObjectSide)...)
		}
		for _, s := range probe {
			if got, want := g.ObjectsOf(s, r), o.ObjectsOf(s, r); !sameEntities(got, want) {
				t.Fatalf("%s: ObjectsOf(%d, %d) = %v, oracle %v", step, s, r, got, want)
			}
		}
	}
	for e := kg.EntityID(0); int(e) < nEnt+2; e++ {
		if g.SubjectCount(e) != o.SubjectCount(e) || g.ObjectCount(e) != o.ObjectCount(e) || g.Degree(e) != o.Degree(e) {
			t.Fatalf("%s: counts of entity %d = %d/%d/%d, oracle %d/%d/%d", step, e,
				g.SubjectCount(e), g.ObjectCount(e), g.Degree(e), o.SubjectCount(e), o.ObjectCount(e), o.Degree(e))
		}
	}
}

// driveAgainstOracle applies the same seeded sequence of mutations to g and
// to an oracle built from g's triples, comparing every query after each
// step. A step is a run of adds (fresh, duplicate and self-loop triples),
// deletes of present and absent triples, AddNamed with new and known names,
// or one AddAll of a batch that repeats itself and the graph, against the
// oracle's loop of Add (one such batch in three also holds every triple of
// the graph, so it is larger than the graph); every few steps both sides are
// replaced by a Clone or by a Merge with a random graph.
func driveAgainstOracle(t *testing.T, g *kg.Graph, steps, opsPerStep int, seed int64, every bool) {
	rng := rand.New(rand.NewSource(seed))
	o := newOracle(g.Entities, g.Relations)
	for _, tr := range g.Triples() {
		o.Add(tr)
	}
	checkAgainstOracle(t, "initial", g, o, rng, every)
	randTriple := func() kg.Triple {
		return kg.Triple{
			S: kg.EntityID(rng.Intn(g.NumEntities())),
			R: kg.RelationID(rng.Intn(g.NumRelations())),
			O: kg.EntityID(rng.Intn(g.NumEntities())),
		}
	}
	for step := 0; step < steps; step++ {
		var name string
		switch kind := rng.Intn(9); {
		case kind < 3:
			name = "add"
			for i := 0; i < opsPerStep; i++ {
				tr := randTriple()
				if rng.Intn(4) == 0 && o.Len() > 0 {
					tr = o.Triples()[rng.Intn(o.Len())]
				}
				if got, want := g.Add(tr), o.Add(tr); got != want {
					t.Fatalf("step %d: Add(%v) = %v, oracle %v", step, tr, got, want)
				}
			}
		case kind < 6:
			name = "delete"
			for i := 0; i < opsPerStep && o.Len() > 0; i++ {
				tr := o.Triples()[rng.Intn(o.Len())]
				if rng.Intn(4) == 0 {
					tr = randTriple()
				}
				if got, want := g.Delete(tr), o.Delete(tr); got != want {
					t.Fatalf("step %d: Delete(%v) = %v, oracle %v", step, tr, got, want)
				}
			}
		case kind == 6:
			name = "addnamed"
			for i := 0; i < opsPerStep; i++ {
				s := g.Entities.Name(int32(rng.Intn(g.NumEntities())))
				obj := "fresh-" + s
				if rng.Intn(2) == 0 {
					obj = g.Entities.Name(int32(rng.Intn(g.NumEntities())))
				}
				r := g.Relations.Name(int32(rng.Intn(g.NumRelations())))
				if rng.Intn(8) == 0 {
					r = "fresh-relation"
				}
				if got, want := g.AddNamed(s, r, obj), o.AddNamed(s, r, obj); got != want {
					t.Fatalf("step %d: AddNamed(%s, %s, %s) = %v, oracle %v", step, s, r, obj, got, want)
				}
			}
		case kind == 7:
			name = "addall"
			var batch []kg.Triple
			if rng.Intn(3) == 0 {
				// A batch larger than the graph: every triple of it beside
				// the fresh triples and repeats below, shuffled together.
				name, batch = "addall-large", slices.Clone(o.Triples())
			}
			for i := 0; i < opsPerStep; i++ {
				tr := randTriple()
				switch rng.Intn(5) {
				case 0:
					if o.Len() > 0 {
						tr = o.Triples()[rng.Intn(o.Len())]
					}
				case 1:
					if len(batch) > 0 {
						tr = batch[rng.Intn(len(batch))]
					}
				case 2:
					if o.Len() > 0 {
						tr = o.Triples()[0]
					}
				}
				batch = append(batch, tr)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			want := 0
			for _, tr := range batch {
				if o.Add(tr) {
					want++
				}
			}
			if got := g.AddAll(batch); got != want {
				t.Fatalf("step %d: AddAll added %d, oracle %d", step, got, want)
			}
		default:
			if rng.Intn(2) == 0 {
				name = "clone"
				g, o = g.Clone(), o.Clone()
				break
			}
			name = "merge"
			x := kg.NewGraphWithDicts(g.Entities, g.Relations)
			ox := newOracle(g.Entities, g.Relations)
			for i := 0; i < opsPerStep; i++ {
				tr := randTriple()
				x.Add(tr)
				ox.Add(tr)
			}
			g, o = kg.Merge(x, g), oracleMerge(ox, o)
		}
		checkAgainstOracle(t, name, g, o, rng, every)
	}
}

// TestGraphMatchesOracleTiny drives the tiny preset's full graph through
// 300 mixed steps, probing every (entity, relation) pair after each.
func TestGraphMatchesOracleTiny(t *testing.T) {
	g, err := synth.GenerateGraph(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	driveAgainstOracle(t, g, 300, 12, 1, true)
}

// TestGraphMatchesOracleKG20k drives a graph of the benchmark fixture's
// shape (20 000 entities, 20 Zipf-distributed relations, 120 000 triples)
// through a few steps of a few hundred operations each.
func TestGraphMatchesOracleKG20k(t *testing.T) {
	if testing.Short() {
		t.Skip("kg20k-shaped oracle comparison skipped in -short mode")
	}
	cfg := synth.Config{
		Name: "kg20k", NumEntities: 20000, NumRelations: 20, NumTriples: 120000, NumTypes: 8,
		EntityZipf: 1.0, RelationZipf: 0.9, ClosureProb: 0.2, NoiseProb: 0.05, Seed: 1,
	}
	g, err := synth.GenerateGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveAgainstOracle(t, g, 10, 300, 2, false)
}
