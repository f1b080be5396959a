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
func batchTestModels(t *testing.T) []Trainable {
	t.Helper()
	var models []Trainable
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
// same holds for ScoreAllSubjectsBatch against one-row ScoreAllSubjects, which
// is what keeps Evaluate's subject-side ranks those of a per-triple sweep.
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
				m.ScoreAllSubjects(1, o, want)
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

// plainModel wraps a Model while hiding that it is Derived, so the
// dispatcher's per-subject fallback is what runs.
type plainModel struct {
	inner                 Model
	sweeps, subjectSweeps int
}

func (p *plainModel) Name() string              { return p.inner.Name() }
func (p *plainModel) Dim() int                  { return p.inner.Dim() }
func (p *plainModel) NumEntities() int          { return p.inner.NumEntities() }
func (p *plainModel) NumRelations() int         { return p.inner.NumRelations() }
func (p *plainModel) Score(t kg.Triple) float32 { return p.inner.Score(t) }
func (p *plainModel) ScoreAllObjects(s kg.EntityID, r kg.RelationID, out []float32) []float32 {
	p.sweeps++
	return p.inner.ScoreAllObjects(s, r, out)
}
func (p *plainModel) ScoreAllSubjects(r kg.RelationID, o kg.EntityID, out []float32) []float32 {
	p.subjectSweeps++
	return p.inner.ScoreAllSubjects(r, o, out)
}

// TestScoreAllObjectsBatchFallback: a Model that is not Derived still
// answers batched sweeps, via one ScoreAllObjects call per subject, and
// ScoreAllSubjectsBatch via one ScoreAllSubjects call per object.
func TestScoreAllObjectsBatchFallback(t *testing.T) {
	inner, err := New("distmult", Config{NumEntities: 64, NumRelations: 2, Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &plainModel{inner: inner}
	ss := []kg.EntityID{3, 9, 3}
	out := vecmath.NewMatrix(len(ss), p.NumEntities())
	ScoreAllObjectsBatch(p, ss, 1, out)
	if p.sweeps != len(ss) {
		t.Errorf("fallback ran %d sweeps, want %d", p.sweeps, len(ss))
	}
	want := make([]float32, p.NumEntities())
	for j, s := range ss {
		inner.ScoreAllObjects(s, 1, want)
		row := out.Row(j)
		for o := range want {
			if row[o] != want[o] {
				t.Fatalf("fallback subject %d: batch[%d] = %g, sweep = %g", s, o, row[o], want[o])
			}
		}
	}
	ScoreAllSubjectsBatch(p, ss, 1, out)
	if p.subjectSweeps != len(ss) {
		t.Errorf("subject fallback ran %d sweeps, want %d", p.subjectSweeps, len(ss))
	}
	for j, o := range ss {
		inner.ScoreAllSubjects(1, o, want)
		row := out.Row(j)
		for s := range want {
			if row[s] != want[s] {
				t.Fatalf("fallback object %d: subject batch[%d] = %g, sweep = %g", o, s, row[s], want[s])
			}
		}
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
