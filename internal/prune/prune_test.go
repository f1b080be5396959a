package prune

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
)

// testModel builds a small randomized model of one family and returns its
// sweeper and fingerprint. 41 entities exercises the non-multiple-of-4 tail;
// dim 8 keeps ConvE's reshape valid.
func testModel(t testing.TB, name string, seed int64) (kge.ObjectSweeper, string) {
	t.Helper()
	cfg := kge.Config{NumEntities: 41, NumRelations: 5, Dim: 8, Seed: 11}
	m, err := kge.New(name, cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] += float32(rng.NormFloat64()) * 0.3
		}
	}
	sw, ok := m.(kge.ObjectSweeper)
	if !ok {
		t.Fatalf("%s does not implement ObjectSweeper", name)
	}
	return sw, kge.Fingerprint(m)
}

// allModels yields every family, covering both sweep geometries.
func allModels(t testing.TB, seed int64) map[string]struct {
	sw kge.ObjectSweeper
	fp string
} {
	t.Helper()
	out := map[string]struct {
		sw kge.ObjectSweeper
		fp string
	}{}
	for _, name := range kge.ModelNames() {
		sw, fp := testModel(t, name, seed)
		out[name] = struct {
			sw kge.ObjectSweeper
			fp string
		}{sw, fp}
	}
	return out
}

func denseSweep(sw kge.ObjectSweeper, s kg.EntityID, r kg.RelationID) []float32 {
	out := make([]float32, sw.NumEntities())
	sw.ScoreAllObjects(s, r, out)
	return out
}

// TestTopMExactIsTrueTopM is the core exactness property: in exact mode the
// TopM result is, value for value, the true top-M multiset of the dense
// sweep's computed float32 scores — for every family and both protocols'
// typical M values.
func TestTopMExactIsTrueTopM(t *testing.T) {
	for name, tm := range allModels(t, 17) {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(tm.sw, tm.fp, Params{Cells: 6})
			if err != nil {
				t.Fatal(err)
			}
			sr, err := NewSearcher(ix, tm.sw, tm.fp)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 3, 10, 25, 40} {
				for s := 0; s < 7; s++ {
					for r := 0; r < tm.sw.NumRelations(); r++ {
						dense := denseSweep(tm.sw, kg.EntityID(s), kg.RelationID(r))
						slices.Sort(dense)
						slices.Reverse(dense)
						want := dense[:m]

						got, ok := sr.TopM(kg.EntityID(s), kg.RelationID(r), m, false, 0)
						if !ok {
							t.Fatalf("m=%d s=%d r=%d: unexpected fallback", m, s, r)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("m=%d s=%d r=%d: top-M mismatch\n got %v\nwant %v", m, s, r, got, want)
						}
					}
				}
			}
			if _, ok := sr.TopM(0, 0, tm.sw.NumEntities(), false, 0); ok {
				t.Fatal("m == n should refuse and fall back")
			}
		})
	}
}

// TestSearcherScoreBitIdentity checks that post-TopM exact rescoring (the
// path targets and filtered corruptions take) reproduces the dense sweep
// bit for bit for every entity.
func TestSearcherScoreBitIdentity(t *testing.T) {
	for name, tm := range allModels(t, 23) {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(tm.sw, tm.fp, Params{})
			if err != nil {
				t.Fatal(err)
			}
			sr, err := NewSearcher(ix, tm.sw, tm.fp)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < 5; s++ {
				for r := 0; r < tm.sw.NumRelations(); r++ {
					dense := denseSweep(tm.sw, kg.EntityID(s), kg.RelationID(r))
					if _, ok := sr.TopM(kg.EntityID(s), kg.RelationID(r), 5, false, 0); !ok {
						t.Fatal("unexpected fallback")
					}
					for o := range dense {
						if got := sr.Score(kg.EntityID(o)); got != dense[o] {
							t.Fatalf("s=%d r=%d o=%d: Score %x != dense %x", s, r, o, got, dense[o])
						}
					}
				}
			}
		})
	}
}

// TestBoundSoundness is the property test behind the exactness claim: over
// randomized models of every family, every cell upper bound dominates the
// computed score of each member, and the exact-mode int8 prescreen bound
// dominates the computed score of each entity. Trials multiply across
// models, subjects, relations, and entities; the aggregate comfortably
// exceeds the thousand-trial bar.
func TestBoundSoundness(t *testing.T) {
	seeds := []int64{101, 202, 303}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for name, tm := range allModels(t, seed) {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				ix, err := Build(tm.sw, tm.fp, Params{Cells: 5})
				if err != nil {
					t.Fatal(err)
				}
				sr, err := NewSearcher(ix, tm.sw, tm.fp)
				if err != nil {
					t.Fatal(err)
				}
				n := tm.sw.NumEntities()
				for s := 0; s < 6; s++ {
					for r := 0; r < tm.sw.NumRelations(); r++ {
						dense := denseSweep(tm.sw, kg.EntityID(s), kg.RelationID(r))
						sr.setQuery(kg.EntityID(s), kg.RelationID(r))
						sr.boundCells()
						for c := 0; c < ix.cells; c++ {
							for _, o := range ix.members[ix.cellStart[c]:ix.cellStart[c+1]] {
								if ub := sr.cellUB[c]; ub < float64(dense[o]) {
									t.Fatalf("s=%d r=%d cell=%d o=%d: cell UB %v < score %v",
										s, r, c, o, ub, dense[o])
								}
							}
						}
						for o := 0; o < n; o++ {
							if ub := sr.prescreenUB(o, false); ub < float64(dense[o]) {
								t.Fatalf("s=%d r=%d o=%d: int8 UB %v < score %v",
									s, r, o, ub, dense[o])
							}
						}
					}
				}
			})
		}
	}
}

// TestTopMTieHeavy puts masses of exactly tied scores at the prune boundary:
// an entity table with only three distinct rows means huge score ties, and
// the exact top-M multiset must still come back value for value.
func TestTopMTieHeavy(t *testing.T) {
	sw, _ := testModel(t, "distmult", 31)
	ent := sw.SweepEntityTable()
	for o := 0; o < ent.Rows; o++ {
		copy(ent.Row(o), ent.Row(o%3))
	}
	fp := "tie-heavy-rebuild" // fingerprint changed with the table; any tag works for Build
	ix, err := Build(sw, fp, Params{Cells: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSearcher(ix, sw, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 10, 39} {
		for r := 0; r < sw.NumRelations(); r++ {
			dense := denseSweep(sw, 1, kg.RelationID(r))
			slices.Sort(dense)
			slices.Reverse(dense)
			got, ok := sr.TopM(1, kg.RelationID(r), m, false, 0)
			if !ok {
				t.Fatalf("m=%d: unexpected fallback", m)
			}
			if !reflect.DeepEqual(got, dense[:m]) {
				t.Fatalf("m=%d r=%d: tie-heavy top-M mismatch\n got %v\nwant %v", m, r, got, dense[:m])
			}
		}
	}
}

// TestApproxModeRuns sanity-checks the approx path: bounded probes, results
// drawn from real computed scores, and descending order.
func TestApproxModeRuns(t *testing.T) {
	for name, tm := range allModels(t, 41) {
		sw := tm.sw
		ix, err := Build(sw, tm.fp, Params{Cells: 8})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewSearcher(ix, sw, tm.fp)
		if err != nil {
			t.Fatal(err)
		}
		dense := denseSweep(sw, 2, 1)
		got, ok := sr.TopM(2, 1, 10, true, 2)
		if !ok {
			t.Fatalf("%s: unexpected fallback", name)
		}
		if len(got) > 10 {
			t.Fatalf("%s: approx returned %d > m values", name, len(got))
		}
		for i, v := range got {
			if i > 0 && got[i-1] < v {
				t.Fatalf("%s: approx result not descending", name)
			}
			if !slices.Contains(dense, v) {
				t.Fatalf("%s: approx value %v not a real score", name, v)
			}
		}
		st := sr.TakeStats()
		if st.CellsVisited > 2 {
			t.Fatalf("%s: visited %d cells with probe=2", name, st.CellsVisited)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for name, tm := range allModels(t, 53) {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(tm.sw, tm.fp, Params{Cells: 6})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ix) {
				t.Fatal("loaded index differs from saved index")
			}

			// A flipped byte anywhere in the body must fail the checksum (or a
			// structural check), never load silently.
			raw := append([]byte(nil), buf.Bytes()...)
			raw[len(raw)/2] ^= 0x40
			if _, err := Load(bytes.NewReader(raw)); err == nil {
				t.Fatal("corrupt sidecar loaded without error")
			}
			if _, err := Load(bytes.NewReader(raw[:len(raw)-3])); err == nil {
				t.Fatal("truncated sidecar loaded without error")
			}
		})
	}
}

// TestBuildDeterminism: same weights, same params → byte-identical sidecars.
func TestBuildDeterminism(t *testing.T) {
	sw, fp := testModel(t, "transe", 71)
	a, err := Build(sw, fp, Params{Cells: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sw, fp, Params{Cells: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.Save(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("two builds of the same weights produced different sidecars")
	}
}

func TestNewSearcherRejectsMismatch(t *testing.T) {
	sw, fp := testModel(t, "distmult", 83)
	ix, err := Build(sw, fp, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(ix, sw, "not-the-fingerprint"); err == nil {
		t.Fatal("searcher accepted a mismatched fingerprint")
	}
	other, _ := testModel(t, "transe", 83)
	if _, err := NewSearcher(ix, other, fp); err == nil {
		t.Fatal("searcher accepted a mismatched geometry")
	}
}

func TestStatsAccounting(t *testing.T) {
	sw, fp := testModel(t, "distmult", 97)
	ix, err := Build(sw, fp, Params{Cells: 8})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSearcher(ix, sw, fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sr.TopM(0, 0, 3, false, 0); !ok {
		t.Fatal("unexpected fallback")
	}
	st := sr.TakeStats()
	if st.ExactRows == 0 {
		t.Fatal("no exact rows counted")
	}
	if st.CellsVisited == 0 {
		t.Fatal("no cells visited")
	}
	if st.CellsVisited+st.CellsPruned > ix.Cells() {
		t.Fatalf("visited %d + pruned %d exceeds %d cells", st.CellsVisited, st.CellsPruned, ix.Cells())
	}
	if got := sr.TakeStats(); got != (Stats{}) {
		t.Fatalf("TakeStats did not reset: %+v", got)
	}
}
