package graphstats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/kg"
	"repro/internal/synth"
)

// buildGraph creates a kg.Graph from undirected edge pairs (one arbitrary
// relation, one direction per edge — the projection must undirect it).
func buildGraph(t *testing.T, n int, edges [][2]int) *kg.Graph {
	t.Helper()
	triples := make([]kg.Triple, len(edges))
	for i, e := range edges {
		triples[i] = kg.Triple{S: kg.EntityID(e[0]), O: kg.EntityID(e[1])}
	}
	return graphOf(n, triples)
}

func TestBuildUndirectedBasics(t *testing.T) {
	// a→b, b→a (parallel, must collapse), a→a (self-loop, dropped), b→c.
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 0}, {0, 0}, {1, 2}})
	u := BuildUndirected(g)
	if u.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", u.NumNodes())
	}
	if u.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (parallel collapsed, self-loop dropped)", u.NumEdges())
	}
	if !u.HasEdge(0, 1) || !u.HasEdge(1, 0) {
		t.Error("edge {a,b} missing or asymmetric")
	}
	if u.HasEdge(0, 0) {
		t.Error("self-loop survived the projection")
	}
	if u.Degree(1) != 2 {
		t.Errorf("Degree(b) = %d, want 2", u.Degree(1))
	}
}

// triangleGraph: a 3-clique {0,1,2} plus a pendant node 3 attached to 0.
func triangleGraph(t *testing.T) *Undirected {
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	return BuildUndirected(g)
}

func TestTrianglesKnownGraph(t *testing.T) {
	u := triangleGraph(t)
	tri := u.Triangles()
	want := []int64{1, 1, 1, 0}
	for v, w := range want {
		if tri[v] != w {
			t.Errorf("T(%d) = %d, want %d", v, tri[v], w)
		}
	}
}

func TestLocalClusteringKnownGraph(t *testing.T) {
	u := triangleGraph(t)
	c := u.LocalClustering(nil)
	// Node 0: deg 3, 1 triangle → 2·1/(3·2) = 1/3.
	// Nodes 1,2: deg 2, 1 triangle → 2·1/(2·1) = 1.
	// Node 3: deg 1 → 0 (convention).
	want := []float64{1.0 / 3, 1, 1, 0}
	for v, w := range want {
		if math.Abs(c[v]-w) > 1e-12 {
			t.Errorf("c(%d) = %g, want %g", v, c[v], w)
		}
	}
}

func TestClusteringStarGraphIsZero(t *testing.T) {
	// Star: hub 0 connected to 1..4. The paper's §4.2.2 example — popular
	// by degree, clustering coefficient 0.
	g := buildGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	u := BuildUndirected(g)
	c := u.LocalClustering(nil)
	for v, cv := range c {
		if cv != 0 {
			t.Errorf("c(%d) = %g, want 0 in a star graph", v, cv)
		}
	}
}

func TestCompleteGraphClusteringIsOne(t *testing.T) {
	var edges [][2]int
	const n = 6
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	u := BuildUndirected(buildGraph(t, n, edges))
	tri := u.Triangles()
	// Each node of K6 is in C(5,2) = 10 triangles.
	for v, tv := range tri {
		if tv != 10 {
			t.Errorf("T(%d) = %d, want 10 in K6", v, tv)
		}
	}
	for v, cv := range u.LocalClustering(tri) {
		if math.Abs(cv-1) > 1e-12 {
			t.Errorf("c(%d) = %g, want 1 in K6", v, cv)
		}
	}
}

func TestSquareClusteringCycle4(t *testing.T) {
	// C4: every node is in exactly one square and no potential others.
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	u := BuildUndirected(g)
	c4 := u.SquareClustering()
	for v, cv := range c4 {
		if math.Abs(cv-1) > 1e-12 {
			t.Errorf("c4(%d) = %g, want 1 on a 4-cycle", v, cv)
		}
	}
}

func TestSquareClusteringTriangleIsZero(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	u := BuildUndirected(g)
	for v, cv := range u.SquareClustering() {
		if cv != 0 {
			t.Errorf("c4(%d) = %g, want 0 on a triangle", v, cv)
		}
	}
}

func TestSquareClusteringCompleteBipartite(t *testing.T) {
	// K_{3,3}: for every node and neighbour pair, all potential squares are
	// realized (each pair shares exactly the two other opposite-side nodes
	// and has no further neighbours), so c4 = 1 — matching NetworkX.
	var edges [][2]int
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	u := BuildUndirected(buildGraph(t, 6, edges))
	for v, cv := range u.SquareClustering() {
		if math.Abs(cv-1) > 1e-12 {
			t.Errorf("c4(%d) = %g, want 1 in K33", v, cv)
		}
	}
}

// Property: optimized triangle counting agrees with the naive reference on
// random graphs.
func TestPropertyTrianglesMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := kg.NewGraph()
		for i := 0; i < n; i++ {
			g.Entities.Intern(string(rune('A' + i)))
		}
		g.Relations.Intern("r")
		for _, e := range edges {
			g.Add(kg.Triple{S: kg.EntityID(e[0]), R: 0, O: kg.EntityID(e[1])})
		}
		u := BuildUndirected(g)
		fast := u.Triangles()
		slow := u.TrianglesNaive()
		for v := range fast {
			if fast[v] != slow[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the sum of T(v) over all nodes is three times the number of
// triangles, hence divisible by 3.
func TestPropertyTriangleSumDivisibleBy3(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		g := kg.NewGraph()
		for i := 0; i < n; i++ {
			g.Entities.Intern(string(rune('A' + i)))
		}
		g.Relations.Intern("r")
		for i := 0; i < n*3; i++ {
			g.Add(kg.Triple{S: kg.EntityID(rng.Intn(n)), R: 0, O: kg.EntityID(rng.Intn(n))})
		}
		u := BuildUndirected(g)
		var sum int64
		for _, tv := range u.Triangles() {
			sum += tv
		}
		return sum%3 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: clustering coefficients lie in [0, 1].
func TestPropertyClusteringInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		g := kg.NewGraph()
		for i := 0; i < n; i++ {
			g.Entities.Intern(string(rune('A' + i)))
		}
		g.Relations.Intern("r")
		for i := 0; i < n*2; i++ {
			g.Add(kg.Triple{S: kg.EntityID(rng.Intn(n)), R: 0, O: kg.EntityID(rng.Intn(n))})
		}
		u := BuildUndirected(g)
		for _, c := range u.LocalClustering(nil) {
			if c < 0 || c > 1 {
				return false
			}
		}
		for _, c := range u.SquareClustering() {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g, want 2", got)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.5, 0.9, 1.0}
	edges, counts := Histogram(xs, 2)
	if len(edges) != 3 || len(counts) != 2 {
		t.Fatalf("edges %v counts %v", edges, counts)
	}
	if counts[0]+counts[1] != len(xs) {
		t.Errorf("histogram loses mass: %v", counts)
	}
	// Bins over [0, 1]: [0, 0.5) and [0.5, 1]; 0.5 belongs to the second.
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("counts = %v, want [3 3]", counts)
	}
	if e, c := Histogram(nil, 3); e != nil || c != nil {
		t.Error("Histogram(nil) should return nils")
	}
	// Degenerate constant input must not divide by zero.
	if _, c := Histogram([]float64{5, 5, 5}, 4); c == nil || sum(c) != 3 {
		t.Error("constant-input histogram broken")
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := PearsonCorrelation(x, x); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g, want 1", got)
	}
	y := []float64{4, 3, 2, 1}
	if got := PearsonCorrelation(x, y); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := PearsonCorrelation(x, []float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("constant series correlation = %g, want 0", got)
	}
	if got := PearsonCorrelation(x, []float64{1}); got != 0 {
		t.Errorf("length mismatch correlation = %g, want 0", got)
	}
}

// TestProjectionAndTrianglesAllocateByTheArray keeps per-node allocations
// (a set or a slice per entity) out of the two kernels Algorithm 1 runs for
// every relation: each works in a fixed handful of arrays.
func TestProjectionAndTrianglesAllocateByTheArray(t *testing.T) {
	g, err := synth.GenerateGraph(synth.Config{
		Name: "allocs", NumEntities: 2000, NumRelations: 6, NumTriples: 12000, NumTypes: 4,
		EntityZipf: 1.0, RelationZipf: 0.8, ClosureProb: 0.2, NoiseProb: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 16
	if got := testing.AllocsPerRun(5, func() { BuildUndirected(g) }); got > limit {
		t.Errorf("BuildUndirected: %.0f allocations, want at most %d", got, limit)
	}
	u := BuildUndirected(g)
	if got := testing.AllocsPerRun(5, func() { u.Triangles() }); got > limit {
		t.Errorf("Triangles: %.0f allocations, want at most %d", got, limit)
	}
	// The counter works on a rank-space copy of the projection; it must not
	// grow past twice the projection's own off and nb arrays.
	projection := 4*len(u.off) + 4*len(u.nb)
	if got := bytesPerRun(5, func() { u.Triangles() }); got > 2*projection {
		t.Errorf("Triangles: %d bytes allocated, want at most %d (twice the projection's %d)", got, 2*projection, projection)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes one
// call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// benchShape projects the train split of the benchmark's fixture (20 000
// entities, 120 000 triples, Zipf 1.0 entities / 0.9 relations, closure 0.2,
// seed 1): a hub of degree 3 437 and up to 48 higher-ranked neighbours per
// node, which the dense oracle's 2 000 nodes never reach.
func benchShape(t *testing.T) *Undirected {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Name: "kg20k", NumEntities: 20000, NumRelations: 20, NumTriples: 120000, NumTypes: 8,
		EntityZipf: 1.0, RelationZipf: 0.9, ClosureProb: 0.2, NoiseProb: 0.05,
		ValidFrac: 0.05, TestFrac: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := BuildUndirected(ds.Train)
	maxDeg := 0
	for v := 0; v < u.NumNodes(); v++ {
		maxDeg = max(maxDeg, u.Degree(kg.EntityID(v)))
	}
	if u.NumNodes() != 20000 || u.NumEdges() != 104307 || maxDeg != 3437 {
		t.Fatalf("fixture drifted: %d nodes, %d edges, largest degree %d; want 20000, 104307, 3437",
			u.NumNodes(), u.NumEdges(), maxDeg)
	}
	return u
}

// TestTrianglesPinnedOnBenchShape pins T(v) on benchShape's projection. The
// counter must equal TrianglesNaive there, and the vector must hash to the
// digest recorded when the test was written.
func TestTrianglesPinnedOnBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-entity graph and runs the naive counter on it")
	}
	u := benchShape(t)
	tri, naive := u.Triangles(), u.TrianglesNaive()
	h := sha256.New()
	var buf [8]byte
	for v := range tri {
		if tri[v] != naive[v] {
			t.Fatalf("T(%d) = %d, naive %d", v, tri[v], naive[v])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(tri[v]))
		h.Write(buf[:])
	}
	const want = "f3dcca6aa4652d9efb0c76c6f174bd792ef98adbe875b1c44aa5287a5bd0cc84"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("T(v) digest = %s, want %s", got, want)
	}
}

// TestSquaresPinnedOnBenchShape pins c₄(v) on benchShape's projection and on
// fb15k237-sim's train projection at 1/15: the SHA-256 of every value's
// float64 bits, little-endian, in node order, recorded on the pair loop
// (SquareClusteringNaive) before the closed form replaced it. On fb15k237-sim
// the closed form must also equal the pair loop bit for bit; on kg20k the
// pair loop takes seconds, so the digest alone holds it.
func TestSquaresPinnedOnBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20 000-entity graph and computes c4 on it")
	}
	fb, err := synth.Generate(synth.FB15K237Sim(15))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		u     *Undirected
		naive bool
		want  string
	}{
		{"kg20k", benchShape(t), false, "318d587274b13c4ea2d83ff3fd8e49ce43fb9e338d7e08f9c19df9d88ad33285"},
		{"fb15k237-sim 1/15", BuildUndirected(fb.Train), true, "0b65e85a7cd76333ff4645c7326c65617e5b4db800a02c16a658201148fb767a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			squares := c.u.SquareClustering()
			if c.naive {
				for v, x := range c.u.SquareClusteringNaive() {
					if math.Float64bits(squares[v]) != math.Float64bits(x) {
						t.Fatalf("c4(%d) = %v, naive %v", v, squares[v], x)
					}
				}
			}
			h := sha256.New()
			var buf [8]byte
			for _, x := range squares {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("c4(v) digest = %s, want %s", got, c.want)
			}
		})
	}
}
