package graphstats

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kg"
)

// TestLiveMatchesRebuild drives a random triple mutation stream — adds,
// deletes, self-loops, parallel edges, and forced delete-then-readd of the
// same edge — through both a Live projection and from-scratch rebuilds, and
// checks after every step that the neighbour lists agree exactly. It also
// validates the EdgeDelta affected sets against the rebuilds: any node
// outside delta.Touched must keep its exact degree/T(v)/c(v), and any node
// outside delta.Square must keep its exact c₄(v) — that soundness is what
// lets the mutate layer skip clean relations.
func TestLiveMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nEnt, nRel = 18, 3

	g := kg.NewGraph()
	for e := 0; e < nEnt; e++ {
		g.Entities.Intern(string(rune('A' + e)))
	}
	for r := 0; r < nRel; r++ {
		g.Relations.Intern(string(rune('p' + r)))
	}
	live := NewLive(g)

	var present []kg.Triple
	var lastDeleted kg.Triple
	haveDeleted := false

	check := func(step int, delta EdgeDelta, preTri []int64, preDeg []int, preC, preC4 []float64) {
		u := BuildUndirected(g)
		for v := 0; v < nEnt; v++ {
			if !slices.Equal(live.Neighbors(kg.EntityID(v)), u.Neighbors(kg.EntityID(v))) {
				t.Fatalf("step %d: adjacency of %d: live %v scratch %v",
					step, v, live.Neighbors(kg.EntityID(v)), u.Neighbors(kg.EntityID(v)))
			}
		}
		wantTri := u.Triangles()
		wantC := u.LocalClustering(wantTri)
		// Soundness of the affected sets: nodes outside them must be
		// byte-for-byte unchanged from before the mutation.
		touched := toSet(delta.Touched)
		square := toSet(delta.Square)
		c4 := u.SquareClustering()
		for v := 0; v < nEnt; v++ {
			id := kg.EntityID(v)
			if _, in := touched[id]; !in {
				if u.Degree(id) != preDeg[v] || wantTri[v] != preTri[v] || wantC[v] != preC[v] {
					t.Fatalf("step %d: node %d outside Touched changed: deg %d→%d T %d→%d c %g→%g",
						step, v, preDeg[v], u.Degree(id), preTri[v], wantTri[v], preC[v], wantC[v])
				}
			}
			if _, in := square[id]; !in {
				if math.Abs(c4[v]-preC4[v]) > 0 {
					t.Fatalf("step %d: node %d outside Square changed c4 %g→%g", step, v, preC4[v], c4[v])
				}
			}
		}
	}

	snapshot := func() ([]int64, []int, []float64, []float64) {
		u := BuildUndirected(g)
		tri := u.Triangles()
		deg := make([]int, nEnt)
		for v := 0; v < nEnt; v++ {
			deg[v] = u.Degree(kg.EntityID(v))
		}
		return tri, deg, u.LocalClustering(tri), u.SquareClustering()
	}

	for step := 0; step < 220; step++ {
		preTri, preDeg, preC, preC4 := snapshot()
		var delta EdgeDelta
		switch {
		case haveDeleted && step%11 == 0 && !g.Contains(lastDeleted):
			// Delete-then-readd of the same edge.
			g.Add(lastDeleted)
			delta = live.AddTriple(lastDeleted.S, lastDeleted.O)
			present = append(present, lastDeleted)
		case len(present) > 4 && rng.Intn(3) == 0:
			i := rng.Intn(len(present))
			tr := present[i]
			g.Delete(tr)
			delta = live.RemoveTriple(tr.S, tr.O)
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			lastDeleted, haveDeleted = tr, true
		default:
			tr := kg.Triple{
				S: kg.EntityID(rng.Intn(nEnt)),
				R: kg.RelationID(rng.Intn(nRel)),
				O: kg.EntityID(rng.Intn(nEnt)),
			}
			if rng.Intn(10) == 0 {
				tr.O = tr.S // force self-loops into the stream
			}
			if !g.Add(tr) {
				continue
			}
			delta = live.AddTriple(tr.S, tr.O)
			present = append(present, tr)
		}
		check(step, delta, preTri, preDeg, preC, preC4)
	}
}

// TestLiveParallelEdges checks that only 0↔1 multiplicity transitions are
// structural: a second triple over the same undirected edge (other relation,
// or reversed direction) must report a non-structural delta and leave the
// projection untouched.
func TestLiveParallelEdges(t *testing.T) {
	g := kg.NewGraph()
	t1 := g.AddNamed("a", "r1", "b")
	live := NewLive(g)

	t2 := g.AddNamed("b", "r2", "a") // reversed duplicate of the same edge
	if d := live.AddTriple(t2.S, t2.O); d.Structural {
		t.Fatal("parallel edge reported structural")
	}
	if d := live.RemoveTriple(t1.S, t1.O); d.Structural {
		t.Fatal("removing one of two parallel triples reported structural")
	}
	g.Delete(t1)
	if !slices.Contains(live.Neighbors(0), 1) {
		t.Fatal("edge vanished while one parallel triple remains")
	}
	g.Delete(t2)
	if d := live.RemoveTriple(t2.S, t2.O); !d.Structural {
		t.Fatal("removing the last parallel triple was not structural")
	}
	if slices.Contains(live.Neighbors(0), 1) {
		t.Fatal("edge survived removal of its last triple")
	}
}

func toSet(s []kg.EntityID) map[kg.EntityID]struct{} {
	m := make(map[kg.EntityID]struct{}, len(s))
	for _, v := range s {
		m[v] = struct{}{}
	}
	return m
}

// TestLiveOwnsItsRows guards the flat layout against in-place growth: the
// rows Live starts from lie back to back in one array, so an insertion that
// appended in place would overwrite the next node's first neighbour.
func TestLiveOwnsItsRows(t *testing.T) {
	// A path 0-1-2-3-4-5: every row is full and has a successor.
	g := buildGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	u := BuildUndirected(g)
	live := NewLive(g)
	rows := func(nb func(kg.EntityID) []kg.EntityID) [][]kg.EntityID {
		out := make([][]kg.EntityID, 6)
		for v := range out {
			out[v] = slices.Clone(nb(kg.EntityID(v)))
		}
		return out
	}
	builtBefore, liveBefore := rows(u.Neighbors), rows(live.Neighbors)

	check := func(step string, changed ...kg.EntityID) {
		t.Helper()
		for v, want := range builtBefore {
			if !slices.Equal(u.Neighbors(kg.EntityID(v)), want) {
				t.Fatalf("%s: row %d of an Undirected built earlier changed to %v", step, v, u.Neighbors(kg.EntityID(v)))
			}
		}
		for v, want := range liveBefore {
			if !slices.Contains(changed, kg.EntityID(v)) && !slices.Equal(live.Neighbors(kg.EntityID(v)), want) {
				t.Fatalf("%s: live row %d changed to %v, want %v", step, v, live.Neighbors(kg.EntityID(v)), want)
			}
		}
	}
	live.AddTriple(1, 4) // grows rows 1 and 4
	check("add {1,4}", 1, 4)
	live.RemoveTriple(2, 3) // shrinks rows 2 and 3
	live.AddTriple(2, 5)    // regrows row 2 inside the space it kept
	check("remove {2,3}, add {2,5}", 1, 2, 3, 4, 5)
	if got := live.Neighbors(2); !slices.Equal(got, []kg.EntityID{1, 5}) {
		t.Fatalf("live row 2 = %v, want [1 5]", got)
	}
}
