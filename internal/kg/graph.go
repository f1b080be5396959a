package kg

import (
	"fmt"
	"slices"
)

// Graph is an in-memory triple store: the triples in insertion order, global
// per-entity subject/object counts, and per relation one sorted index that
// answers membership, the relation's triples, its unique subjects and objects
// with their counts (Algorithm 1 line 7's pools) and the objects of each
// (subject, relation) pair (filtered ranking). The index is built eagerly and
// kept exact by every mutation, so queries only read and are safe for
// concurrent use; mutation (Add, AddAll, Delete) is not.
type Graph struct {
	Entities  *Dict
	Relations *Dict

	triples []Triple
	rels    []relIndex // by RelationID, up to the highest relation ever added

	subjectCount []int64 // per entity: appearances as subject
	objectCount  []int64 // per entity: appearances as object
}

// relIndex is one relation's index. Its (subject, object) pairs form a CSR:
// subs are the unique subjects in ascending order, and row i's objects are
// objs[off[i]:off[i+1]], ascending. loc[j] is where the triple of objs[j]
// sits in Graph.triples and in triples, so Delete can swap-remove it.
type relIndex struct {
	triples []Triple // insertion order, swap-removed by Delete

	subs []EntityID
	off  []int32 // len(subs)+1 row offsets
	objs []EntityID
	loc  []tripleLoc

	objIDs   []EntityID // unique objects, ascending
	objCount []int32    // triples per objIDs entry
}

// tripleLoc is where a triple sits in the two positional slices.
type tripleLoc struct {
	pos    int32 // index in Graph.triples
	relPos int32 // index in relIndex.triples
}

// NewGraph returns an empty graph with fresh entity and relation dictionaries.
func NewGraph() *Graph {
	return NewGraphWithDicts(NewDict(), NewDict())
}

// NewGraphWithDicts returns an empty graph sharing the given dictionaries.
// Splits of one dataset share dictionaries so IDs agree across splits.
func NewGraphWithDicts(entities, relations *Dict) *Graph {
	return &Graph{Entities: entities, Relations: relations}
}

// index returns r's index, growing the table to hold it.
func (g *Graph) index(r RelationID) *relIndex {
	for int(r) >= len(g.rels) {
		g.rels = append(g.rels, relIndex{off: []int32{0}})
	}
	return &g.rels[r]
}

// lookup returns r's index, the empty one if no triple ever had relation r.
func (g *Graph) lookup(r RelationID) *relIndex {
	if r < 0 || int(r) >= len(g.rels) {
		return &noIndex
	}
	return &g.rels[r]
}

var noIndex = relIndex{off: []int32{0}} // read only

// row returns the row of subject s: its position in subs (or where it would
// go) and its objects.
func (x *relIndex) row(s EntityID) (i int, objs []EntityID, ok bool) {
	i, ok = slices.BinarySearch(x.subs, s)
	if !ok {
		return i, nil, false
	}
	return i, x.objs[x.off[i]:x.off[i+1]:x.off[i+1]], true
}

// find returns the row of s and the entry of (s, o) in objs, or where they
// would go.
func (x *relIndex) find(s, o EntityID) (i, j int, ok bool) {
	i, row, ok := x.row(s)
	k, ok := slices.BinarySearch(row, o)
	return i, int(x.off[i]) + k, ok
}

// Add inserts t if not already present and reports whether it was inserted.
// It costs a shift of t's relation's index; build graphs with AddAll.
func (g *Graph) Add(t Triple) bool {
	x := g.index(t.R)
	i, j, ok := x.find(t.S, t.O)
	if ok {
		return false
	}
	if i == len(x.subs) || x.subs[i] != t.S {
		x.subs = slices.Insert(x.subs, i, t.S)
		x.off = slices.Insert(x.off, i, x.off[i])
	}
	tail := x.off[i+1:]
	for k := range tail {
		tail[k]++
	}
	x.objs = slices.Insert(x.objs, j, t.O)
	x.loc = slices.Insert(x.loc, j, g.place(x, t))
	k, ok := slices.BinarySearch(x.objIDs, t.O)
	if !ok {
		x.objIDs = slices.Insert(x.objIDs, k, t.O)
		x.objCount = slices.Insert(x.objCount, k, 0)
	}
	x.objCount[k]++
	return true
}

// place appends t to the triple lists and the entity counts and returns
// where it went.
func (g *Graph) place(x *relIndex, t Triple) tripleLoc {
	loc := tripleLoc{pos: int32(len(g.triples)), relPos: int32(len(x.triples))}
	g.triples = append(g.triples, t)
	x.triples = append(x.triples, t)
	g.bump(&g.subjectCount, t.S)
	g.bump(&g.objectCount, t.O)
	return loc
}

// AddAll adds the triples of ts that are not yet present, exactly as a loop
// of Add would: in ts's order, keeping the first of any repeats. It reports
// how many it added. Each relation's index takes its sorted delta in one
// merge, so a bulk load costs a sort, not one index shift per triple.
func (g *Graph) AddAll(ts []Triple) int {
	var keys [][]uint64 // by relation: S<<32 | O of ts's triples, IDs being at least 0
	for _, t := range ts {
		for int(t.R) >= len(keys) {
			keys = append(keys, nil)
		}
		keys[t.R] = append(keys[t.R], uint64(t.S)<<32|uint64(t.O))
	}
	added := 0
	for r, delta := range keys {
		slices.Sort(delta)
		delta = slices.DeleteFunc(slices.Compact(delta), func(k uint64) bool {
			return g.Contains(Triple{S: EntityID(k >> 32), R: RelationID(r), O: EntityID(uint32(k))})
		})
		if len(delta) > 0 {
			g.index(RelationID(r)).merge(delta)
			added += len(delta)
		}
	}
	g.triples = slices.Grow(g.triples, added)
	for _, t := range ts {
		if loc := g.locOf(t); loc.pos < 0 {
			*loc = g.place(&g.rels[t.R], t)
		}
	}
	return added
}

// merge folds delta, the S<<32 | O keys of triples new to the relation in
// ascending order, into the index in one pass, each at the location
// {-1, -1} until AddAll places it.
func (x *relIndex) merge(delta []uint64) {
	x.triples = slices.Grow(x.triples, len(delta))
	subs, off, newObjs := []EntityID(nil), []int32(nil), make([]EntityID, len(delta))
	for k, key := range delta {
		newObjs[k] = EntityID(uint32(key))
	}
	objs, loc := make([]EntityID, 0, len(x.objs)+len(delta)), make([]tripleLoc, 0, len(x.objs)+len(delta))
	put := func(key uint64, l tripleLoc) {
		if s := EntityID(key >> 32); len(subs) == 0 || subs[len(subs)-1] != s {
			subs, off = append(subs, s), append(off, int32(len(objs)))
		}
		objs, loc = append(objs, EntityID(uint32(key))), append(loc, l)
	}
	row, unplaced := 0, tripleLoc{-1, -1}
	for j, o := range x.objs {
		for int(x.off[row+1]) <= j {
			row++
		}
		key := uint64(x.subs[row])<<32 | uint64(o)
		for ; len(delta) > 0 && delta[0] < key; delta = delta[1:] {
			put(delta[0], unplaced)
		}
		put(key, x.loc[j])
	}
	for _, key := range delta {
		put(key, unplaced)
	}
	x.subs, x.off, x.objs, x.loc = slices.Clone(subs), slices.Clone(append(off, int32(len(objs)))), objs, loc

	slices.Sort(newObjs)
	ids, counts, k := []EntityID(nil), []int32(nil), 0
	for _, o := range newObjs {
		for ; k < len(x.objIDs) && x.objIDs[k] <= o; k++ {
			ids, counts = append(ids, x.objIDs[k]), append(counts, x.objCount[k])
		}
		if len(ids) > 0 && ids[len(ids)-1] == o {
			counts[len(counts)-1]++
		} else {
			ids, counts = append(ids, o), append(counts, 1)
		}
	}
	x.objIDs = slices.Clone(append(ids, x.objIDs[k:]...))
	x.objCount = slices.Clone(append(counts, x.objCount[k:]...))
}

// Delete removes t if present and reports whether it was removed. The last
// triple of each positional list takes t's place there.
func (g *Graph) Delete(t Triple) bool {
	x := g.lookup(t.R)
	i, j, ok := x.find(t.S, t.O)
	if !ok {
		return false
	}
	loc := x.loc[j]
	moved := g.triples[len(g.triples)-1]
	g.triples[loc.pos], g.locOf(moved).pos = moved, loc.pos
	g.triples = g.triples[:len(g.triples)-1]
	moved = x.triples[len(x.triples)-1]
	x.triples[loc.relPos], g.locOf(moved).relPos = moved, loc.relPos
	x.triples = x.triples[:len(x.triples)-1]
	x.objs = slices.Delete(x.objs, j, j+1)
	x.loc = slices.Delete(x.loc, j, j+1)
	tail := x.off[i+1:]
	for k := range tail {
		tail[k]--
	}
	if x.off[i] == x.off[i+1] {
		x.subs = slices.Delete(x.subs, i, i+1)
		x.off = slices.Delete(x.off, i, i+1)
	}
	k, _ := slices.BinarySearch(x.objIDs, t.O)
	if x.objCount[k]--; x.objCount[k] == 0 {
		x.objIDs = slices.Delete(x.objIDs, k, k+1)
		x.objCount = slices.Delete(x.objCount, k, k+1)
	}
	g.subjectCount[t.S]--
	g.objectCount[t.O]--
	return true
}

// locOf returns the location record of t, which must be present.
func (g *Graph) locOf(t Triple) *tripleLoc {
	x := &g.rels[t.R]
	_, j, _ := x.find(t.S, t.O)
	return &x.loc[j]
}

func (g *Graph) bump(counts *[]int64, e EntityID) {
	for int(e) >= len(*counts) {
		*counts = append(*counts, 0)
	}
	(*counts)[e]++
}

// AddNamed interns the names and inserts the resulting triple, returning it.
func (g *Graph) AddNamed(s, r, o string) Triple {
	t := g.named(s, r, o)
	g.Add(t)
	return t
}

// named interns the names and returns their triple.
func (g *Graph) named(s, r, o string) Triple {
	return Triple{
		S: EntityID(g.Entities.Intern(s)),
		R: RelationID(g.Relations.Intern(r)),
		O: EntityID(g.Entities.Intern(o)),
	}
}

// Contains reports whether t is a fact of the graph.
func (g *Graph) Contains(t Triple) bool {
	_, _, ok := g.lookup(t.R).find(t.S, t.O)
	return ok
}

// Len returns the number of triples M = |G|.
func (g *Graph) Len() int { return len(g.triples) }

// NumEntities returns N = |E| (as interned in the shared entity dictionary).
func (g *Graph) NumEntities() int { return g.Entities.Len() }

// NumRelations returns K = |R|.
func (g *Graph) NumRelations() int { return g.Relations.Len() }

// Triples returns the backing triple slice in insertion order. The caller
// must not modify it.
func (g *Graph) Triples() []Triple { return g.triples }

// RelationTriples returns all triples with relation r. The caller must not
// modify the returned slice.
func (g *Graph) RelationTriples(r RelationID) []Triple { return g.lookup(r).triples }

// RelationIDs returns the IDs of all relations that occur in at least one
// triple, in ascending order. Note this may be a subset of the dictionary if
// the dictionary is shared with other splits.
func (g *Graph) RelationIDs() []RelationID {
	out := make([]RelationID, 0, len(g.rels))
	for r := range g.rels {
		if len(g.rels[r].triples) > 0 {
			out = append(out, RelationID(r))
		}
	}
	return out
}

// SubjectCount returns how many triples have e as subject.
func (g *Graph) SubjectCount(e EntityID) int64 {
	if int(e) >= len(g.subjectCount) {
		return 0
	}
	return g.subjectCount[e]
}

// ObjectCount returns how many triples have e as object.
func (g *Graph) ObjectCount(e EntityID) int64 {
	if int(e) >= len(g.objectCount) {
		return 0
	}
	return g.objectCount[e]
}

// Degree returns the total degree of e: in-degree plus out-degree, counting
// every triple incident to e once per position (self-loops count twice, once
// per side), matching the paper's deg(x) = in + out.
func (g *Graph) Degree(e EntityID) int64 {
	return g.SubjectCount(e) + g.ObjectCount(e)
}

// ObjectsOf returns the objects o with (s, r, o) ∈ g, in ascending ID order.
// The caller must not modify the returned slice.
func (g *Graph) ObjectsOf(s EntityID, r RelationID) []EntityID {
	_, objs, _ := g.lookup(r).row(s)
	return objs
}

// SideEntities returns the unique entities appearing on the given side of
// relation r, in ascending ID order. The caller must not modify the slice.
func (g *Graph) SideEntities(r RelationID, side Side) []EntityID {
	if side == SubjectSide {
		return g.lookup(r).subs
	}
	return g.lookup(r).objIDs
}

// SideCount returns how many triples of relation r have e on the given side.
func (g *Graph) SideCount(r RelationID, side Side, e EntityID) int64 {
	x := g.lookup(r)
	if side == SubjectSide {
		_, objs, _ := x.row(e)
		return int64(len(objs))
	}
	if k, ok := slices.BinarySearch(x.objIDs, e); ok {
		return int64(x.objCount[k])
	}
	return 0
}

// FormatTriple renders t with entity and relation names.
func (g *Graph) FormatTriple(t Triple) string {
	return fmt.Sprintf("(%s, %s, %s)",
		g.Entities.Name(int32(t.S)), g.Relations.Name(int32(t.R)), g.Entities.Name(int32(t.O)))
}

// Clone returns a deep copy of the graph sharing no mutable state with g
// except the (append-only) dictionaries.
func (g *Graph) Clone() *Graph { return Merge(g) }

// Merge adds all triples of other (which must share dictionaries) into a new
// graph containing the union. It is used to build the "seen" filter set for
// filtered ranking (train ∪ valid ∪ test).
func Merge(graphs ...*Graph) *Graph {
	if len(graphs) == 0 {
		return NewGraph()
	}
	var all []Triple
	for _, g := range graphs {
		all = append(all, g.triples...)
	}
	out := NewGraphWithDicts(graphs[0].Entities, graphs[0].Relations)
	out.AddAll(all)
	return out
}
