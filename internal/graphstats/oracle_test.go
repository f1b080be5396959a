package graphstats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
)

// The tests in this file check the projection and every statistic against a
// dense adjacency matrix built straight from the triples. The matrix shares
// no code with BuildUndirected, so a fault in the projection (a lost
// neighbour, a surviving duplicate, a row out of order) cannot hide behind a
// reference that is built from the same projection, as it can with
// TrianglesNaive.

// graphOf interns n entities and three relations and adds the triples; it
// lets a test control relation labels and directions.
func graphOf(n int, triples []kg.Triple) *kg.Graph {
	g := kg.NewGraph()
	for i := 0; i < n; i++ {
		g.Entities.Intern(fmt.Sprintf("e%d", i))
	}
	for r := 0; r < 3; r++ {
		g.Relations.Intern(fmt.Sprintf("r%d", r))
	}
	for _, t := range triples {
		g.Add(t)
	}
	return g
}

// dense is the oracle: adj[a][b] is true iff some triple joins a and b in
// either direction and a != b.
type dense [][]bool

func denseOf(g *kg.Graph) dense {
	n := g.NumEntities()
	d := make(dense, n)
	for i := range d {
		d[i] = make([]bool, n)
	}
	for _, t := range g.Triples() {
		if t.S != t.O {
			d[t.S][t.O] = true
			d[t.O][t.S] = true
		}
	}
	return d
}

func (d dense) neighbors(v int) []kg.EntityID {
	var nb []kg.EntityID
	for w, ok := range d[v] {
		if ok {
			nb = append(nb, kg.EntityID(w))
		}
	}
	return nb
}

// triangles counts, for every node, the adjacent pairs among its neighbours.
func (d dense) triangles() []int64 {
	tri := make([]int64, len(d))
	for v := range d {
		nb := d.neighbors(v)
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				if d[a][b] {
					tri[v]++
				}
			}
		}
	}
	return tri
}

// squares evaluates Zhang et al.'s c₄ in integers: every term is a count, so
// the sums are exact in any order and only the final division rounds.
func (d dense) squares() []float64 {
	deg := make([]int, len(d))
	for v := range d {
		deg[v] = len(d.neighbors(v))
	}
	c := make([]float64, len(d))
	for v := range d {
		nb := d.neighbors(v)
		var squares, potential int
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				q := 0
				for x := range d {
					if x != v && d[a][x] && d[b][x] {
						q++
					}
				}
				degm := q + 1
				if d[a][b] {
					degm++
				}
				squares += q
				potential += deg[a] - degm + deg[b] - degm + q
			}
		}
		if potential > 0 {
			c[v] = float64(squares) / float64(potential)
		}
	}
	return c
}

// SquareClusteringNaive is NetworkX's square_clustering, SquareClustering's
// oracle: for every neighbour pair {a, b} of v, merge the two rows to count
// q, their common neighbours other than v, and add the pair's squares and
// potential squares in float64. The sums hold integers, so they are exact,
// and only the final division rounds.
func (u *Undirected) SquareClusteringNaive() []float64 {
	c := make([]float64, u.NumNodes())
	for v := range c {
		nb := u.Neighbors(kg.EntityID(v))
		var squares, potential float64
		for i, a := range nb {
			for _, b := range nb[i+1:] {
				la, lb := u.Neighbors(a), u.Neighbors(b)
				q := 0
				for x, y := 0, 0; x < len(la) && y < len(lb); {
					switch {
					case la[x] < lb[y]:
						x++
					case la[x] > lb[y]:
						y++
					default:
						if la[x] != kg.EntityID(v) {
							q++
						}
						x++
						y++
					}
				}
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

// checkAgainstDense is the invariant set shared by the property test and
// FuzzProjection: rows strictly increasing, free of self-loops and equal to
// the matrix rows (hence symmetric), NumEdges, Degree, HasEdge, Triangles,
// TrianglesNaive, LocalClustering, and SquareClustering bit for bit against
// SquareClusteringNaive; against the dense c₄ too when withSquares (it costs
// O(n) per neighbour pair).
func checkAgainstDense(t *testing.T, g *kg.Graph, withSquares bool) {
	t.Helper()
	d := denseOf(g)
	u := BuildUndirected(g)
	if u.NumNodes() != len(d) {
		t.Fatalf("NumNodes = %d, want %d", u.NumNodes(), len(d))
	}
	edges := 0
	for v := range d {
		want := d.neighbors(v)
		got := u.Neighbors(kg.EntityID(v))
		if !slices.Equal(got, want) || u.Degree(kg.EntityID(v)) != len(want) {
			t.Fatalf("row %d = %v, want %v", v, got, want)
		}
		for _, w := range got {
			if !u.HasEdge(w, kg.EntityID(v)) {
				t.Fatalf("edge {%d,%d} is not symmetric", v, w)
			}
		}
		if u.HasEdge(kg.EntityID(v), kg.EntityID(v)) {
			t.Fatalf("self-loop on %d", v)
		}
		edges += len(want)
	}
	if u.NumEdges() != edges/2 {
		t.Fatalf("NumEdges = %d, want %d", u.NumEdges(), edges/2)
	}
	wantTri := d.triangles()
	tri, naive := u.Triangles(), u.TrianglesNaive()
	clust := u.LocalClustering(nil)
	for v, w := range wantTri {
		if tri[v] != w || naive[v] != w {
			t.Fatalf("T(%d) = %d (naive %d), want %d", v, tri[v], naive[v], w)
		}
		var wantC float64
		if k := len(d.neighbors(v)); k >= 2 {
			wantC = 2 * float64(w) / (float64(k) * float64(k-1))
		}
		if clust[v] != wantC {
			t.Fatalf("c(%d) = %g, want %g", v, clust[v], wantC)
		}
	}
	squares, naiveSquares := u.SquareClustering(), u.SquareClusteringNaive()
	for v, c := range squares {
		if math.Float64bits(c) != math.Float64bits(naiveSquares[v]) {
			t.Fatalf("c4(%d) = %v, naive %v", v, c, naiveSquares[v])
		}
	}
	if withSquares {
		want := d.squares()
		for v, c := range squares {
			if c != want[v] {
				t.Fatalf("c4(%d) = %g, want %g", v, c, want[v])
			}
		}
	}
}

// zipfTriples draws m triples whose endpoints follow a Zipf law over n
// entities, in random directions and relations, self-loops and repeats
// included.
func zipfTriples(rng *rand.Rand, n, m int) []kg.Triple {
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	ts := make([]kg.Triple, m)
	for i := range ts {
		ts[i] = kg.Triple{S: kg.EntityID(z.Uint64()), R: kg.RelationID(rng.Intn(3)), O: kg.EntityID(rng.Intn(n))}
		if rng.Intn(2) == 0 {
			ts[i].S, ts[i].O = ts[i].O, ts[i].S
		}
	}
	return ts
}

func edge(a, b int) kg.Triple { return kg.Triple{S: kg.EntityID(a), O: kg.EntityID(b)} }

// starClique joins a hub to every node of a 6-clique and to 20 leaves (27
// nodes): clique members tie on degree, and every triangle through the hub
// is closed by an edge the hub's long list must not be walked for.
func starClique() []kg.Triple {
	var ts []kg.Triple
	for i := 1; i <= 26; i++ {
		ts = append(ts, edge(0, i))
	}
	for i := 1; i <= 6; i++ {
		for j := i + 1; j <= 6; j++ {
			ts = append(ts, edge(j, i))
		}
	}
	return ts
}

// ring is a 30-node ring with chords: every node has degree 4, so the rank
// order is decided by the ID tie-break alone.
func ring() []kg.Triple {
	var ts []kg.Triple
	for i := 0; i < 30; i++ {
		ts = append(ts, edge(i, (i+1)%30), edge((i+2)%30, i))
	}
	return ts
}

func TestProjectionAndStatisticsMatchDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	// Each undirected edge asserted up to six times: both directions, three
	// relations; plus self-loops and five trailing entities in no triple.
	var parallel []kg.Triple
	for i := 0; i < 60; i++ {
		a, b := rng.Intn(15), rng.Intn(15)
		for r := 0; r < 3; r++ {
			parallel = append(parallel,
				kg.Triple{S: kg.EntityID(a), R: kg.RelationID(r), O: kg.EntityID(b)},
				kg.Triple{S: kg.EntityID(b), R: kg.RelationID(r), O: kg.EntityID(a)})
		}
		parallel = append(parallel, edge(a, a))
	}

	cases := []struct {
		name    string
		n       int
		triples []kg.Triple
		squares bool
	}{
		{"empty", 0, nil, true},
		{"no triples", 7, nil, true},
		{"only self-loops", 3, []kg.Triple{edge(0, 0), edge(2, 2)}, true},
		{"star plus clique", 27, starClique(), true},
		{"equal-degree ring", 30, ring(), true},
		{"parallel edges, self-loops, isolated tail", 20, parallel, true},
		{"zipf 300", 300, zipfTriples(rng, 300, 1500), true},
		{"zipf 2000", 2000, zipfTriples(rng, 2000, 12000), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstDense(t, graphOf(c.n, c.triples), c.squares) })
	}
}

// TestStatisticsFollowARelabelling is the metamorphic check: relabel the
// entities by a seeded permutation π and T, c and c₄ must move with them,
// bit for bit — T'(π(v)) = T(v), c'(π(v)) = c(v) and c₄'(π(v)) = c₄(v). The
// rank order breaks degree ties by ID, so each permutation makes the counter
// meet the same triangles in another tie order, and c₄ walks every
// neighbour's row in another order.
func TestStatisticsFollowARelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name    string
		n       int
		triples []kg.Triple
	}{
		{"star plus clique", 27, starClique()},
		{"equal-degree ring", 30, ring()},
		{"zipf 2000", 2000, zipfTriples(rng, 2000, 12000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := BuildUndirected(graphOf(c.n, c.triples))
			tri := u.Triangles()
			clust := u.LocalClustering(tri)
			squares := u.SquareClustering()
			for seed := int64(1); seed <= 4; seed++ {
				pi := rand.New(rand.NewSource(seed)).Perm(c.n)
				moved := make([]kg.Triple, len(c.triples))
				for i, tr := range c.triples {
					moved[i] = kg.Triple{S: kg.EntityID(pi[tr.S]), R: tr.R, O: kg.EntityID(pi[tr.O])}
				}
				pu := BuildUndirected(graphOf(c.n, moved))
				ptri := pu.Triangles()
				pclust := pu.LocalClustering(ptri)
				psquares := pu.SquareClustering()
				for v := range tri {
					if ptri[pi[v]] != tri[v] || math.Float64bits(pclust[pi[v]]) != math.Float64bits(clust[v]) ||
						math.Float64bits(psquares[pi[v]]) != math.Float64bits(squares[v]) {
						t.Fatalf("seed %d: node %d → %d: T %d → %d, c %g → %g, c4 %g → %g",
							seed, v, pi[v], tri[v], ptri[pi[v]], clust[v], pclust[pi[v]], squares[v], psquares[pi[v]])
					}
				}
			}
		})
	}
}

// encodeTriples is FuzzProjection's input for n entities and the triples.
func encodeTriples(n int, ts []kg.Triple) []byte {
	data := []byte{byte(n - 1)}
	for _, t := range ts {
		data = append(data, byte(t.S), byte(t.O), byte(t.R))
	}
	return data
}

// FuzzProjection decodes bytes into a triple list — first byte the entity
// count, then (s, o, r) byte triplets — and holds the result to the dense
// oracle, and c₄ to the pair loop at every size.
func FuzzProjection(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 1, 2, 1, 2, 0, 2})
	f.Add([]byte{5, 0, 0, 0, 1, 1, 1, 4, 3, 0, 3, 4, 2})
	f.Add(encodeTriples(27, starClique()))
	f.Add(encodeTriples(30, ring()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%48
		var ts []kg.Triple
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			ts = append(ts, kg.Triple{
				S: kg.EntityID(int(b[0]) % n),
				R: kg.RelationID(b[2] % 3),
				O: kg.EntityID(int(b[1]) % n),
			})
		}
		checkAgainstDense(t, graphOf(n, ts), n <= 24)
	})
}
