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
//
// Triangles, which Algorithm 1 also reruns per relation for the triangle
// and clustering strategies, copies the projection once into rank space
// (nodes ordered by degree, then ID) and meets each triangle once, at its
// middle-ranked corner: on the benchmark's 20 000-entity fixture that is
// 544 108 checks for 263 544 triangles.
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
	// Size row v by g.Degree(v), which counts a self-loop once per side.
	// Self-loops are not written, so row v ends at end[v], before row v+1.
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.Degree(kg.EntityID(v)))
	}
	// Scatter both directions of every triple into the rows.
	end := slices.Clone(off[:n])
	raw := make([]kg.EntityID, off[n])
	for _, r := range g.RelationIDs() {
		subs, rows, objs := g.Pairs(r)
		for i, s := range subs {
			for _, o := range objs[rows[i]:rows[i+1]] {
				if s != o {
					raw[end[s]] = o
					end[s]++
					raw[end[o]] = s
					end[o]++
				}
			}
		}
	}
	// Transpose: the entries are symmetric, so writing v into the row of
	// each of its neighbours, for v in increasing order, reproduces every
	// row at its old length (ending at end[v] again) and in increasing
	// order without sorting.
	cur := slices.Clone(off[:n])
	nb := make([]kg.EntityID, len(raw))
	for v := 0; v < n; v++ {
		for _, w := range raw[off[v]:end[v]] {
			nb[cur[w]] = kg.EntityID(v)
			cur[w]++
		}
	}
	// Drop the duplicates, now adjacent, packing the rows leftwards over
	// the gaps; the write position never passes the read position.
	w := int32(0)
	for v := 0; v < n; v++ {
		row := nb[off[v]:end[v]]
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
// Implementation: each triangle is met once, at its middle corner. Rank the
// nodes by (degree, ID) and split every row, in rank space, into B(r), the
// lower-ranked neighbours, and F(r), the higher-ranked ones. A triangle
// a < b < c in rank has b in F(a) and c in both F(a) and F(b); so for each b
// the counter marks F(b) and, for each a in B(b), scans the part of F(a)
// after b for marks. That is Σ_a C(|F(a)|, 2) checks, and |F(a)| ≤ √(2m)
// (a node with k higher-ranked neighbours has k neighbours of degree at
// least k, so k² ≤ 2m) however large the hub: O(m·√m) in all. The counts
// are integers, so they do not depend on the order triangles are met in.
func (u *Undirected) Triangles() []int64 {
	n := u.NumNodes()
	// Rank the nodes by (degree, ID) with a counting sort: order[r] is the
	// node of rank r and rank[v] the rank of node v.
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, u.Degree(kg.EntityID(v)))
	}
	first := make([]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		first[u.Degree(kg.EntityID(v))]++
	}
	var sum int32
	for d, c := range first {
		first[d], sum = sum, sum+c
	}
	order, rank := make([]kg.EntityID, n), make([]int32, n)
	for v := 0; v < n; v++ {
		d := u.Degree(kg.EntityID(v))
		rank[v] = first[d]
		order[first[d]] = kg.EntityID(v)
		first[d]++
	}
	// Transpose the projection into rank space: writing r into the row of
	// each neighbour, for r in increasing order, leaves every row ascending.
	// roff[s+1] is row s's write cursor and ends at the row's end. When r's
	// turn comes, its row holds exactly B(r), so split[r], the end of B(r),
	// is the cursor then.
	roff := make([]int32, n+1)
	for r := 1; r < n; r++ {
		roff[r+1] = roff[r] + int32(u.Degree(order[r-1]))
	}
	rnb, split := make([]int32, len(u.nb)), make([]int32, n)
	for r, v := range order {
		split[r] = roff[r+1]
		for _, w := range u.Neighbors(v) {
			s := rank[w]
			rnb[roff[s+1]] = int32(r)
			roff[s+1]++
		}
	}
	// Count. a's row is visited in increasing b, so split[a], advanced once
	// per visit, points at b within F(a) when b's turn comes; split[b] itself
	// only advances after b's turn. rank is free now and holds the marks
	// without being cleared: a node read at b's turn lies in F(a) for some
	// a < b, whose turn set its mark and reset it to 0.
	mark := rank
	tr := make([]int64, n)
	for b := range n {
		fb := rnb[split[b]:roff[b+1]]
		for _, c := range fb {
			mark[c] = 1
		}
		for _, a := range rnb[roff[b]:split[b]] {
			var found int64
			for _, c := range rnb[split[a]+1 : roff[a+1]] {
				hit := int64(mark[c])
				found += hit
				tr[c] += hit
			}
			split[a]++
			tr[a] += found
			tr[b] += found
		}
		for _, c := range fb {
			mark[c] = 0
		}
	}
	tri := make([]int64, n)
	for r, v := range order {
		tri[v] = tr[r]
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
// (actual squares) and a_v(u,w) counts the potential squares; c₄(v) = 0 when
// the denominator is 0. Both sums close over the pairs. The numerator is
// S(v) = Σ_{w≠v} C(p_w, 2), where p_w counts the 2-paths v–u–w, and the
// denominator is (d−1)·Σ_{u∈N(v)} k_u − d(d−1) − 2T(v) − S(v), with d = deg v
// and T(v) from Triangles. One walk of v's neighbours' rows counts every p_w,
// so the cost is Σ_u k_u² rather than a row merge per neighbour pair. Every
// term is an exact integer, so the quotient has the pair-by-pair sum's bits.
func (u *Undirected) SquareClustering() []float64 {
	tri := u.Triangles()
	c := make([]float64, u.NumNodes())
	paths := make([]int32, len(c))
	var reached []kg.EntityID
	for v := range c {
		d := int64(u.Degree(kg.EntityID(v)))
		var sumK, s int64
		for _, x := range u.Neighbors(kg.EntityID(v)) {
			row := u.Neighbors(x)
			sumK += int64(len(row))
			for _, w := range row {
				if paths[w] == 0 {
					reached = append(reached, w)
				}
				s += int64(paths[w]) // C(p+1, 2) − C(p, 2) = p
				paths[w]++
			}
		}
		s -= d * (d - 1) / 2 // v itself, where all d paths return
		for _, w := range reached {
			paths[w] = 0
		}
		reached = reached[:0]
		if potential := (d-1)*sumK - d*(d-1) - 2*tri[v] - s; potential > 0 {
			c[v] = float64(s) / float64(potential)
		}
	}
	return c
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

// PearsonCorrelation returns the sample Pearson correlation of xs and ys, and
// false for a constant series, unequal lengths or fewer than two points.
// Figure 5 and eval.PopularityBias (on rank vectors, Spearman) both read it.
func PearsonCorrelation(xs, ys []float64) (float64, bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, false
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
		return 0, false
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), true
}
