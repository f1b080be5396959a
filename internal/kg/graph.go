package kg

import (
	"fmt"
	"slices"
)

// Graph is an in-memory triple store: global per-entity subject/object
// counts, and per relation one sorted index that answers membership, the
// relation's triples, its unique subjects and objects with their counts
// (Algorithm 1 line 7's pools) and the objects of each (subject, relation)
// pair (filtered ranking). Each entry carries its triple's insertion sequence
// number: a graph that had triples deleted reads as the graph built without
// them. The index is kept exact by every mutation, so queries only read and
// are safe for concurrent use; mutation (Add, AddAll, Delete) is not.
type Graph struct {
	Entities  *Dict
	Relations *Dict

	rels []relIndex // by RelationID, up to the highest relation ever added
	n    int        // triples held
	next int32      // sequence number of the next triple; Delete leaves gaps below it

	subjectCount []int64 // per entity: appearances as subject
	objectCount  []int64 // per entity: appearances as object
}

// relIndex is one relation's index. Its (subject, object) pairs form a CSR:
// subs are the unique subjects in ascending order, and row i's objects are
// objs[off[i]:off[i+1]], ascending, seq[j] numbering the triple of objs[j].
type relIndex struct {
	subs []EntityID
	off  []int32 // len(subs)+1 row offsets
	objs []EntityID
	seq  []int32

	objIDs   []EntityID // unique objects, ascending
	objCount []int32    // triples per objIDs entry
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

// find returns the row of s and the entry of (s, o) in objs, or where they go.
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
		x.subs, x.off = slices.Insert(x.subs, i, t.S), slices.Insert(x.off, i, x.off[i])
	}
	tail := x.off[i+1:]
	for k := range tail {
		tail[k]++
	}
	x.objs, x.seq = slices.Insert(x.objs, j, t.O), slices.Insert(x.seq, j, g.next)
	k, ok := slices.BinarySearch(x.objIDs, t.O)
	if !ok {
		x.objIDs, x.objCount = slices.Insert(x.objIDs, k, t.O), slices.Insert(x.objCount, k, 0)
	}
	x.objCount[k]++
	g.n, g.next = g.n+1, g.next+1
	g.count(t)
	return true
}

func (g *Graph) count(t Triple) {
	for int(max(t.S, t.O)) >= len(g.subjectCount) {
		g.subjectCount, g.objectCount = append(g.subjectCount, 0), append(g.objectCount, 0)
	}
	g.subjectCount[t.S]++
	g.objectCount[t.O]++
}

// AddAll adds the triples of ts that are not yet present, exactly as a loop
// of Add would: in ts's order, keeping the first of any repeats, and reports
// how many it added. It rebuilds the whole index from Triples and then ts by
// one stable counting sort on (O, S, R), keeping the first of each run of
// equal triples: a few linear passes over Len + len(ts) triples, with no
// comparison sort and no lookup per triple. Add a few triples with Add.
func (g *Graph) AddAll(ts []Triple) int {
	all := append(g.Triples(), ts...)
	ids, keyO, keyS, keyR := make([]int32, len(all)), make([]int32, len(all)), make([]int32, len(all)), make([]int32, len(all))
	nE, nR := 0, 0
	for i, t := range all {
		ids[i], keyO[i], keyS[i], keyR[i] = int32(i), int32(t.O), int32(t.S), int32(t.R)
		nE, nR = max(nE, int(t.S)+1, int(t.O)+1), max(nR, int(t.R)+1)
	}
	byO := sortBy(ids, keyO, nE)
	order := sortBy(sortBy(byO, keyS, nE), keyR, nR)
	keep := make([]bool, len(all))
	for k, i := range order {
		keep[i] = k == 0 || all[order[k-1]] != all[i]
	}
	// Sequence numbers restart at 0, closing the gaps Delete left.
	old, seq, q := g.n, make([]int32, len(all)), int32(0)
	for i, t := range all {
		if keep[i] {
			seq[i], q = q, q+1
			if i >= old {
				g.count(t)
			}
		}
	}
	g.n, g.next, g.rels = int(q), q, nil
	for _, i := range order {
		if t := all[i]; keep[i] {
			x := g.index(t.R)
			if len(x.subs) == 0 || x.subs[len(x.subs)-1] != t.S {
				x.subs, x.off = append(x.subs, t.S), append(x.off, x.off[len(x.subs)])
			}
			x.off[len(x.subs)]++
			x.objs, x.seq = append(x.objs, t.O), append(x.seq, seq[i])
		}
	}
	for _, i := range byO {
		if t := all[i]; keep[i] {
			x := &g.rels[t.R]
			if k := len(x.objIDs) - 1; k >= 0 && x.objIDs[k] == t.O {
				x.objCount[k]++
			} else {
				x.objIDs, x.objCount = append(x.objIDs, t.O), append(x.objCount, 1)
			}
		}
	}
	return g.n - old
}

// sortBy returns src, indices into key, stably reordered by key (in [0, n)).
func sortBy(src, key []int32, n int) []int32 {
	at := make([]int32, n+1)
	for _, i := range src {
		at[key[i]+1]++
	}
	for k := 1; k <= n; k++ {
		at[k] += at[k-1]
	}
	dst := make([]int32, len(src))
	for _, i := range src {
		dst[at[key[i]]] = i
		at[key[i]]++
	}
	return dst
}

// Delete removes t if present and reports whether it was removed. Once the
// gaps it leaves in the sequence numbers outnumber the triples, AddAll closes them.
func (g *Graph) Delete(t Triple) bool {
	x := g.lookup(t.R)
	i, j, ok := x.find(t.S, t.O)
	if !ok {
		return false
	}
	x.objs, x.seq = slices.Delete(x.objs, j, j+1), slices.Delete(x.seq, j, j+1)
	tail := x.off[i+1:]
	for k := range tail {
		tail[k]--
	}
	if x.off[i] == x.off[i+1] {
		x.subs, x.off = slices.Delete(x.subs, i, i+1), slices.Delete(x.off, i, i+1)
	}
	k, _ := slices.BinarySearch(x.objIDs, t.O)
	if x.objCount[k]--; x.objCount[k] == 0 {
		x.objIDs, x.objCount = slices.Delete(x.objIDs, k, k+1), slices.Delete(x.objCount, k, k+1)
	}
	g.subjectCount[t.S]--
	g.objectCount[t.O]--
	if g.n--; int(g.next) > 2*g.n {
		g.AddAll(nil)
	}
	return true
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
func (g *Graph) Len() int { return g.n }

// NumEntities returns N = |E| (as interned in the shared entity dictionary).
func (g *Graph) NumEntities() int { return g.Entities.Len() }

// NumRelations returns K = |R|.
func (g *Graph) NumRelations() int { return g.Relations.Len() }

// Triples returns the triples in insertion order, in a new slice. Readers to
// whom the order does not matter walk Pairs instead.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, g.next)
	for q := 0; g.n < len(out) && q < len(out); q++ {
		out[q].R = -1
	}
	for r := range g.rels {
		x := &g.rels[r]
		for i, s := range x.subs {
			for j := x.off[i]; j < x.off[i+1]; j++ {
				out[x.seq[j]] = Triple{S: s, R: RelationID(r), O: x.objs[j]}
			}
		}
	}
	return slices.DeleteFunc(out, func(t Triple) bool { return t.R < 0 })
}

// RelationTriples returns the triples with relation r in insertion order, in
// a new slice: its entries radix-sorted by sequence number, 11 bits a pass.
func (g *Graph) RelationTriples(r RelationID) []Triple {
	x := g.lookup(r)
	ts, ids, digit := make([]Triple, 0, len(x.objs)), make([]int32, len(x.objs)), make([]int32, len(x.objs))
	for i, s := range x.subs {
		for j := x.off[i]; j < x.off[i+1]; j++ {
			ts, ids[j] = append(ts, Triple{S: s, R: r, O: x.objs[j]}), j
		}
	}
	for shift := 0; g.next>>shift > 0; shift += 11 {
		for j, q := range x.seq {
			digit[j] = q >> shift & 2047
		}
		ids = sortBy(ids, digit, 2048)
	}
	out := make([]Triple, len(ts))
	for k, j := range ids {
		out[k] = ts[j]
	}
	return out
}

// RelationLen returns how many triples have relation r.
func (g *Graph) RelationLen(r RelationID) int { return len(g.lookup(r).objs) }

// Pairs returns relation r's CSR: its unique subjects, ascending, and the
// objects of subs[i], ascending, at objs[off[i]:off[i+1]]. Do not modify them.
func (g *Graph) Pairs(r RelationID) (subs []EntityID, off []int32, objs []EntityID) {
	x := g.lookup(r)
	return x.subs, x.off, x.objs
}

// RelationIDs returns the IDs of all relations that occur in at least one
// triple, in ascending order. Note this may be a subset of the dictionary if
// the dictionary is shared with other splits.
func (g *Graph) RelationIDs() []RelationID {
	out := make([]RelationID, 0, len(g.rels))
	for r := range g.rels {
		if len(g.rels[r].objs) > 0 {
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
func (g *Graph) Clone() *Graph {
	c := *g
	c.rels = slices.Clone(g.rels)
	for r := range c.rels {
		x := &c.rels[r]
		x.subs, x.off, x.objs, x.seq = slices.Clone(x.subs), slices.Clone(x.off), slices.Clone(x.objs), slices.Clone(x.seq)
		x.objIDs, x.objCount = slices.Clone(x.objIDs), slices.Clone(x.objCount)
	}
	c.subjectCount, c.objectCount = slices.Clone(g.subjectCount), slices.Clone(g.objectCount)
	return &c
}

// Merge adds all triples of other (which must share dictionaries) into a new
// graph containing the union. It is used to build the "seen" filter set for
// filtered ranking (train ∪ valid ∪ test).
func Merge(graphs ...*Graph) *Graph {
	if len(graphs) == 0 {
		return NewGraph()
	}
	var all []Triple
	for _, g := range graphs {
		all = append(all, g.Triples()...)
	}
	out := NewGraphWithDicts(graphs[0].Entities, graphs[0].Relations)
	out.AddAll(all)
	return out
}
