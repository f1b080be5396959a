package kge

import (
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// newTestSweeper builds a small randomized model of each family. Dim 8 keeps
// ConvE's reshape valid (2×4) and exercises both the 4-row MatVec blocks and
// the Dot tail (41 entities: 10 blocks + 1 tail row).
func newTestSweeper(t *testing.T, name string) ObjectSweeper {
	t.Helper()
	cfg := Config{NumEntities: 41, NumRelations: 5, Dim: 8, Seed: 11}
	m, err := New(name, cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	// Perturb past initialization so tests do not depend on init symmetry.
	rng := rand.New(rand.NewSource(17))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] += float32(rng.NormFloat64()) * 0.1
		}
	}
	sw, ok := m.(ObjectSweeper)
	if !ok {
		t.Fatalf("%s does not implement ObjectSweeper", name)
	}
	return sw
}

func allTestSweepers(t *testing.T) map[string]ObjectSweeper {
	t.Helper()
	sweepers := map[string]ObjectSweeper{}
	for _, name := range ModelNames() {
		sweepers[name] = newTestSweeper(t, name)
	}
	return sweepers
}

// rebuildSweep reconstructs the object sweep from the ObjectSweeper pieces
// using exactly the kernels pruned ranking uses: MatVecRange over aligned
// 4-row blocks for the dot family (plus the single bias add), and the
// per-row distance kernels for TransE.
func rebuildSweep(sw ObjectSweeper, s kg.EntityID, r kg.RelationID) []float32 {
	n := sw.NumEntities()
	ent := sw.SweepEntityTable()
	q := make([]float32, sw.SweepDim())
	sw.BuildObjectQuery(s, r, q)
	out := make([]float32, n)
	switch sw.SweepGeometry() {
	case SweepDot:
		for lo := 0; lo < n; lo += 4 {
			hi := lo + 4
			if hi > n {
				hi = n
			}
			vecmath.MatVecRange(out, ent, q, lo, hi)
		}
		if bias := sw.SweepBias(); bias != nil {
			for o := range out {
				out[o] += bias[o]
			}
		}
	case SweepL1:
		for o := 0; o < n; o++ {
			out[o] = -vecmath.L1Distance(q, ent.Row(o))
		}
	}
	return out
}

// TestObjectSweeperBitIdentity is the exactness contract behind -prune=exact:
// for every model the sweep reconstructed from (geometry, query, entity
// table, bias) is bit-identical to ScoreAllObjects.
func TestObjectSweeperBitIdentity(t *testing.T) {
	for name, sw := range allTestSweepers(t) {
		t.Run(name, func(t *testing.T) {
			want := make([]float32, sw.NumEntities())
			for s := 0; s < 7; s++ {
				for r := 0; r < sw.NumRelations(); r++ {
					sw.ScoreAllObjects(kg.EntityID(s), kg.RelationID(r), want)
					got := rebuildSweep(sw, kg.EntityID(s), kg.RelationID(r))
					for o := range want {
						if got[o] != want[o] {
							t.Fatalf("s=%d r=%d o=%d: rebuilt %x != sweep %x",
								s, r, o, got[o], want[o])
						}
					}
				}
			}
		})
	}
}

// TestObjectSweeperShapes sanity-checks the geometry metadata against the
// entity table.
func TestObjectSweeperShapes(t *testing.T) {
	for name, sw := range allTestSweepers(t) {
		ent := sw.SweepEntityTable()
		if ent.Rows != sw.NumEntities() {
			t.Errorf("%s: table rows %d != entities %d", name, ent.Rows, sw.NumEntities())
		}
		if ent.Cols != sw.SweepDim() {
			t.Errorf("%s: table cols %d != SweepDim %d", name, ent.Cols, sw.SweepDim())
		}
		if bias := sw.SweepBias(); bias != nil && len(bias) != sw.NumEntities() {
			t.Errorf("%s: bias length %d != entities %d", name, len(bias), sw.NumEntities())
		}
		if name == "conve" && sw.SweepBias() == nil {
			t.Error("conve: expected a sweep bias")
		}
	}
}
