package graphstats

import (
	"sort"

	"repro/internal/kg"
)

// Live maintains the undirected projection of a mutating knowledge graph
// incrementally: sorted neighbour lists and per-edge triple multiplicities,
// updated by local work around the touched edge instead of a full
// BuildUndirected rebuild, and reports with each mutation the nodes whose
// statistics it may have changed (EdgeDelta).
//
// Two triple-level facts make the bookkeeping subtle and are handled here so
// callers never see them: the projection drops self-loops, and it collapses
// parallel edges — (a, r1, b), (b, r2, a) and (a, r1, b) again all project to
// the single undirected edge {a, b}. Live therefore counts the *multiplicity*
// of each undirected edge (how many triples currently project onto it) and
// only mutates the structure on 0↔1 transitions.
//
// No program reads Live: mutate.DirtyRelations compares the strategies' own
// weights instead. It is kept only because bench/ still times it
// (graphstats.live_us_per_op), to go with the next [benchmark] PR.
type Live struct {
	adj  [][]kg.EntityID
	mult map[edgeKey]int32
}

// edgeKey is an undirected edge with a < b (self-loops never become keys).
type edgeKey struct{ a, b kg.EntityID }

func keyOf(a, b kg.EntityID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// EdgeDelta reports the structural effect of projecting one triple-level
// mutation. When Structural is false the undirected graph did not change
// (the triple was a self-loop, or a parallel edge remained). When it is true:
//
//   - Touched holds every node whose degree, T(v) or local clustering c(v)
//     may have changed: the two endpoints plus their common neighbours
//     (each completed or broken triangle's third corner).
//   - Square holds every node whose square clustering c₄(v) may have
//     changed: {a, b} ∪ N(a) ∪ N(b). c₄(v) depends only on v's neighbour
//     set, its neighbours' degrees, and common neighbours of neighbour
//     pairs; inserting or removing {a, b} leaves all three untouched for
//     any v at distance ≥ 2 from both endpoints, so this superset is sound.
//
// Both sets are computed with the edge in place (just after an insertion,
// just before a removal), so they cover the "before" and "after" worlds.
type EdgeDelta struct {
	Structural bool
	Touched    []kg.EntityID
	Square     []kg.EntityID
}

// NewLive builds the live projection of g's current triples. Each row
// starts as a capacity-clipped window on the flat neighbour array of a
// projection built here and owned by Live alone: an insertion reallocates
// the row it grows, and a removal shifts entries only inside its own row, so
// no mutation can reach a neighbouring row or another Undirected.
func NewLive(g *kg.Graph) *Live {
	u := BuildUndirected(g)
	l := &Live{
		adj:  make([][]kg.EntityID, u.NumNodes()),
		mult: make(map[edgeKey]int32, g.Len()),
	}
	for v := range l.adj {
		l.adj[v] = u.Neighbors(kg.EntityID(v))
	}
	for _, t := range g.Triples() {
		if t.S != t.O {
			l.mult[keyOf(t.S, t.O)]++
		}
	}
	return l
}

// Neighbors returns v's current sorted neighbour list. It aliases Live's
// internal state: the caller must not modify it, and it is valid only until
// the next AddTriple or RemoveTriple call.
func (l *Live) Neighbors(v kg.EntityID) []kg.EntityID { return l.adj[v] }

// grow extends the adjacency to cover entity IDs interned after NewLive.
func (l *Live) grow(v kg.EntityID) {
	for int(v) >= len(l.adj) {
		l.adj = append(l.adj, nil)
	}
}

// AddTriple projects the insertion of triple (s, _, o) and returns the delta.
func (l *Live) AddTriple(s, o kg.EntityID) EdgeDelta {
	if s == o {
		return EdgeDelta{}
	}
	l.grow(s)
	l.grow(o)
	k := keyOf(s, o)
	l.mult[k]++
	if l.mult[k] > 1 {
		return EdgeDelta{}
	}
	a, b := k.a, k.b
	commons := l.commonNeighbors(a, b)
	l.adj[a] = insertNeighbor(l.adj[a], b)
	l.adj[b] = insertNeighbor(l.adj[b], a)
	return EdgeDelta{
		Structural: true,
		Touched:    append([]kg.EntityID{a, b}, commons...),
		Square:     l.squareSet(a, b),
	}
}

// RemoveTriple projects the removal of triple (s, _, o) and returns the
// delta. The caller must only remove triples it previously added.
func (l *Live) RemoveTriple(s, o kg.EntityID) EdgeDelta {
	if s == o {
		return EdgeDelta{}
	}
	k := keyOf(s, o)
	l.mult[k]--
	if l.mult[k] > 0 {
		return EdgeDelta{}
	}
	delete(l.mult, k)
	a, b := k.a, k.b
	square := l.squareSet(a, b)
	l.adj[a] = removeNeighbor(l.adj[a], b)
	l.adj[b] = removeNeighbor(l.adj[b], a)
	commons := l.commonNeighbors(a, b)
	return EdgeDelta{
		Structural: true,
		Touched:    append([]kg.EntityID{a, b}, commons...),
		Square:     square,
	}
}

// commonNeighbors merge-intersects the sorted neighbour lists of a and b.
// It is called with the edge {a, b} absent from the adjacency, so the result
// is exactly the set of third corners of triangles through that edge.
func (l *Live) commonNeighbors(a, b kg.EntityID) []kg.EntityID {
	la, lb := l.adj[a], l.adj[b]
	var out []kg.EntityID
	i, j := 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			out = append(out, la[i])
			i++
			j++
		}
	}
	return out
}

// squareSet returns {a, b} ∪ N(a) ∪ N(b), deduplicated.
func (l *Live) squareSet(a, b kg.EntityID) []kg.EntityID {
	out := make([]kg.EntityID, 0, 2+len(l.adj[a])+len(l.adj[b]))
	out = append(out, a, b)
	out = append(out, l.adj[a]...)
	out = append(out, l.adj[b]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:1]
	for _, v := range out[1:] {
		if v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

func insertNeighbor(s []kg.EntityID, e kg.EntityID) []kg.EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func removeNeighbor(s []kg.EntityID, e kg.EntityID) []kg.EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	if i >= len(s) || s[i] != e {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
