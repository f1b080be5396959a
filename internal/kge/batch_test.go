package kge

import (
	"math"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// batchTestModels builds every model over a vocabulary large enough that the
// entity table spans several MatMat row tiles with a ragged final tile (1100
// rows; the widest tile at these dims is 680 rows), so the bit-identity
// claim is exercised across tile boundaries and the Dot tail, not just
// inside one tile.
func batchTestModels(t *testing.T) []Model {
	t.Helper()
	var models []Model
	for _, name := range ModelNames() {
		cfg := Config{NumEntities: 1100, NumRelations: 3, Dim: 12, Seed: 5}
		m, err := New(name, cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		models = append(models, m)
	}
	return models
}

// TestScoreAllObjectsBatchBitIdentical is the contract of the batch sweep: every
// row of the batched sweep must be bit-identical (==, not approximately
// equal) to the corresponding per-subject ScoreAllObjects sweep. Discovery
// output stays byte-identical under batching if and only if this holds. The
// same holds for ScoreAllSubjectsBatch against its one-row calls, which is
// what keeps Evaluate's subject-side ranks those of a per-triple sweep.
func TestScoreAllObjectsBatchBitIdentical(t *testing.T) {
	// Duplicate subjects and a non-multiple-of-4 batch size included.
	ss := []kg.EntityID{7, 0, 1099, 7, 513, 42, 680}
	for _, m := range batchTestModels(t) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			if _, ok := m.(*Derived); !ok {
				t.Fatalf("New(%s) returned %T, not *Derived", m.Name(), m)
			}
			n := m.NumEntities()
			out := vecmath.NewMatrix(len(ss), n)
			ScoreAllObjectsBatch(m, ss, 1, out)
			want := make([]float32, n)
			for j, s := range ss {
				m.ScoreAllObjects(s, 1, want)
				row := out.Row(j)
				for o := range want {
					if row[o] != want[o] {
						t.Fatalf("subject %d: batch[%d] = %g, sweep = %g (not bit-identical)",
							s, o, row[o], want[o])
					}
				}
			}
			ScoreAllSubjectsBatch(m, ss, 1, out)
			for j, o := range ss {
				ScoreAllSubjectsBatch(m, []kg.EntityID{o}, 1, &vecmath.Matrix{Rows: 1, Cols: n, Data: want})
				row := out.Row(j)
				for s := range want {
					if math.Float32bits(row[s]) != math.Float32bits(want[s]) {
						t.Fatalf("object %d: subject batch[%d] = %g, sweep = %g (not bit-identical)",
							o, s, row[s], want[s])
					}
				}
			}
		})
	}
}

func TestScoreAllObjectsBatchBufferPanics(t *testing.T) {
	m, err := New("distmult", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong batch buffer shape")
		}
	}()
	ScoreAllObjectsBatch(m, []kg.EntityID{0, 1}, 0, vecmath.NewMatrix(2, 5))
}
