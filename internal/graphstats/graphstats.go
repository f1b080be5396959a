// Package graphstats computes the structural node statistics that drive the
// paper's sampling strategies and figures: degrees, local triangle counts
// T(v), local clustering coefficients c(v) (Watts–Strogatz), and square
// clustering coefficients c₄(v) (Zhang et al.), all computed — as the paper
// specifies — on the homogeneous undirected projection of the knowledge
// graph (relation labels and edge directions dropped, self-loops and
// parallel edges collapsed).
//
// The projection is stored in compressed sparse row form: one flat
// neighbour array nb holding every node's neighbours in increasing ID
// order, and an offset array off of length N+1, so that node v's row is
// nb[off[v]:off[v+1]]. Every undirected edge {a, b} appears twice, as b in
// a's row and as a in b's. Building it costs a handful of allocations
// whatever the graph's size, which matters because Algorithm 1 rebuilds it
// for every relation.
package graphstats

import (
	"math"
	"slices"

	"repro/internal/kg"
)

// Undirected is the homogeneous undirected projection of a knowledge graph:
// node v's neighbours are every entity connected to v by at least one triple
// in either direction, excluding v itself. Rows are sorted and free of
// duplicates (see the package comment for the layout).
type Undirected struct {
	off []int32
	nb  []kg.EntityID
}

// BuildUndirected projects g. Nodes are all interned entities (0..N-1),
// including isolated ones. The offsets are int32: a graph may hold at most
// 2³⁰ triples.
func BuildUndirected(g *kg.Graph) *Undirected {
	n := g.NumEntities()
	triples := g.Triples()
	// Row lengths, parallel edges included, then their running sum.
	off := make([]int32, n+1)
	for _, t := range triples {
		if t.S != t.O {
			off[t.S+1]++
			off[t.O+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Scatter both directions of every triple into rows in triple order.
	cur := slices.Clone(off[:n])
	raw := make([]kg.EntityID, off[n])
	for _, t := range triples {
		if t.S != t.O {
			raw[cur[t.S]] = t.O
			cur[t.S]++
			raw[cur[t.O]] = t.S
			cur[t.O]++
		}
	}
	// Transpose: the entries are symmetric, so writing v into the row of
	// each of its neighbours, for v in increasing order, reproduces every
	// row at its old length and in increasing order without sorting.
	copy(cur, off)
	nb := make([]kg.EntityID, len(raw))
	for v := 0; v < n; v++ {
		for _, w := range raw[off[v]:off[v+1]] {
			nb[cur[w]] = kg.EntityID(v)
			cur[w]++
		}
	}
	// Drop the duplicates, now adjacent, packing the rows leftwards over
	// the gaps; the write position never passes the read position.
	w := int32(0)
	for v := 0; v < n; v++ {
		row := nb[off[v]:off[v+1]]
		off[v] = w
		for i, x := range row {
			if i == 0 || x != nb[w-1] {
				nb[w] = x
				w++
			}
		}
	}
	off[n] = w
	return &Undirected{off: off, nb: nb[:w]}
}

// NumNodes returns the node count.
func (u *Undirected) NumNodes() int { return len(u.off) - 1 }

// Neighbors returns v's sorted neighbour list. The caller must not modify
// it; its capacity is clipped so that appending cannot reach the next row.
func (u *Undirected) Neighbors(v kg.EntityID) []kg.EntityID {
	return u.nb[u.off[v]:u.off[v+1]:u.off[v+1]]
}

// Degree returns the simple undirected degree of v.
func (u *Undirected) Degree(v kg.EntityID) int { return int(u.off[v+1] - u.off[v]) }

// HasEdge reports whether {a, b} is an edge, via binary search on a's list.
func (u *Undirected) HasEdge(a, b kg.EntityID) bool {
	_, found := slices.BinarySearch(u.Neighbors(a), b)
	return found
}

// NumEdges returns the number of undirected edges.
func (u *Undirected) NumEdges() int { return len(u.nb) / 2 }

// Triangles returns T(v) for every node: the number of edges among v's
// neighbours, i.e. the number of triangles through v. Each triangle
// {u, v, w} contributes exactly 1 to each of its three corners.
//
// Implementation: the forward algorithm. Order the nodes by (degree, ID) and
// keep, for every node, only its neighbours later in that order — its
// forward list. A triangle's earliest corner a has both others in its
// forward list, and the middle corner b has the last, c, in its own; so
// marking a's forward list and scanning the forward list of each b in it
// meets every triangle exactly once, at c. A node with forward list of
// length k has k later neighbours of degree at least k, hence k² ≤ 2m: no
// forward list is longer than √(2m), however large the hub, and the whole
// count costs O(m·√m). The counts are integers, so they do not depend on
// the order triangles are met in.
func (u *Undirected) Triangles() []int64 {
	n := u.NumNodes()
	tri := make([]int64, n)
	// Forward lists, in CSR form like the projection itself.
	foff := make([]int32, n+1)
	fwd := make([]kg.EntityID, 0, len(u.nb)/2)
	for a := 0; a < n; a++ {
		av, da := kg.EntityID(a), u.Degree(kg.EntityID(a))
		for _, b := range u.Neighbors(av) {
			if db := u.Degree(b); db > da || (db == da && b > av) {
				fwd = append(fwd, b)
			}
		}
		foff[a+1] = int32(len(fwd))
	}
	mark := make([]int32, n) // mark[c] == a+1 while c is in a's forward list
	for a := 0; a < n; a++ {
		fa, tag := fwd[foff[a]:foff[a+1]], int32(a)+1
		for _, c := range fa {
			mark[c] = tag
		}
		for _, b := range fa {
			var found int64
			for _, c := range fwd[foff[b]:foff[b+1]] {
				if mark[c] == tag {
					found++
					tri[c]++
				}
			}
			tri[a] += found
			tri[b] += found
		}
	}
	return tri
}

// TrianglesNaive is the O(Σ deg³)-ish reference used by tests and the
// ablation benchmark: for each node, test every neighbour pair for an edge.
func (u *Undirected) TrianglesNaive() []int64 {
	tri := make([]int64, u.NumNodes())
	for v := range tri {
		nb := u.Neighbors(kg.EntityID(v))
		var count int64
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if u.HasEdge(nb[i], nb[j]) {
					count++
				}
			}
		}
		tri[v] = count
	}
	return tri
}

// LocalClustering returns c(v) = 2·T(v) / (deg(v)·(deg(v)−1)) for every
// node, with c(v) = 0 when deg(v) < 2 (the NetworkX convention). tri may be
// nil, in which case Triangles is computed internally.
func (u *Undirected) LocalClustering(tri []int64) []float64 {
	if tri == nil {
		tri = u.Triangles()
	}
	c := make([]float64, u.NumNodes())
	for v := range c {
		d := u.Degree(kg.EntityID(v))
		if d < 2 {
			continue
		}
		c[v] = 2 * float64(tri[v]) / (float64(d) * float64(d-1))
	}
	return c
}

// SquareClustering returns the squares clustering coefficient c₄(v) of every
// node per Zhang et al. (2008), matching NetworkX's square_clustering:
//
//	c₄(v) = Σ_{u<w ∈ N(v)} q_v(u,w) / Σ_{u<w ∈ N(v)} [a_v(u,w) + q_v(u,w)]
//
// where q_v(u,w) is the number of common neighbours of u and w other than v
// (actual squares) and a_v(u,w) counts the potential squares. This is the
// deliberately expensive statistic the paper excluded from its main
// experiments after a 54-hour run; the complexity lives here so the
// exclusion experiment (repro squares / X1) can measure it.
func (u *Undirected) SquareClustering() []float64 {
	c := make([]float64, u.NumNodes())
	for v := range c {
		nb := u.Neighbors(kg.EntityID(v))
		var squares, potential float64
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				a, b := nb[i], nb[j]
				q := u.commonNeighborsExcluding(a, b, kg.EntityID(v))
				squares += float64(q)
				degm := q + 1
				if u.HasEdge(a, b) {
					degm++
				}
				potential += float64(u.Degree(a)-degm) + float64(u.Degree(b)-degm) + float64(q)
			}
		}
		if potential > 0 {
			c[v] = squares / potential
		}
	}
	return c
}

func (u *Undirected) commonNeighborsExcluding(a, b, excl kg.EntityID) int {
	la, lb := u.Neighbors(a), u.Neighbors(b)
	i, j, count := 0, 0, 0
	for i < len(la) && j < len(lb) {
		switch {
		case la[i] < lb[j]:
			i++
		case la[i] > lb[j]:
			j++
		default:
			if la[i] != excl {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// Mean returns the arithmetic mean of xs (0 for empty input). The paper's
// Figure 3 reports the average local clustering coefficient per dataset.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Histogram buckets xs into bins equal-width bins over [min, max] and
// returns the bin edges (len bins+1) and counts (len bins). Used to render
// Figure 3's distributions.
func Histogram(xs []float64, bins int) (edges []float64, counts []int) {
	if bins <= 0 || len(xs) == 0 {
		return nil, nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, bins+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(bins)
	}
	counts = make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		counts[i]++
	}
	return edges, counts
}

// PearsonCorrelation returns the sample Pearson correlation of xs and ys.
// Figure 5's argument is the *lack* of correlation between triangle counts
// and clustering coefficients; we quantify it.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}
