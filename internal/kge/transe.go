package kge

import (
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// TransE is the translation-based model of Bordes et al. (2013): a relation
// is a translation in embedding space and the scoring function is the
// negated L1 distance f(s, r, o) = −‖s + r − o‖₁.
type TransE struct {
	tables
	pending []int32 // PostBatch's pending entity rows
}

// NewTransE constructs and initializes a TransE model.
func NewTransE(cfg Config) (*TransE, error) {
	m := &TransE{tables: newTables("transe", cfg, cfg.Dim, cfg.Dim)}
	// TransE sweeps a distance, not a dot product.
	m.geom = SweepL1
	if m.initXavier(cfg.Dim) != nil {
		for i := 0; i < cfg.NumEntities; i++ {
			vecmath.NormalizeL2(m.ent.M.Row(i))
		}
	}
	return m, nil
}

// Score implements QueryModel: −d(s + r, o).
func (m *TransE) Score(t kg.Triple) float32 {
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	var d float32
	for i := range s {
		v := s[i] + r[i] - o[i]
		if v < 0 {
			v = -v
		}
		d += v
	}
	return -d
}

// ScoreWithContext implements QueryModel.
func (m *TransE) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

// ObjectQuery implements QueryModel: with q = s + r the object sweep scores
// −d(q, o') for every entity row o'.
func (m *TransE) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	vecmath.Add(q, m.ent.M.Row(int(s)), m.rel.M.Row(int(r)))
	return nil
}

// BackpropObjectQuery implements QueryModel: ∂s = ∂r = dq.
func (m *TransE) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	gb.Axpy(m.ent, int(s), 1, dq)
	gb.Axpy(m.rel, int(r), 1, dq)
}

// SubjectQuery implements QueryModel: d(s + r, o) = d(s, o − r), so with
// q = o − r the subject sweep is symmetric to the object sweep.
func (m *TransE) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	vecmath.Sub(q, m.ent.M.Row(int(o)), m.rel.M.Row(int(r)))
	return true
}

// BackpropSubjectQuery implements QueryModel: ∂r = −dq, ∂o = dq.
func (m *TransE) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	gb.Axpy(m.rel, int(r), -1, dq)
	gb.Axpy(m.ent, int(o), 1, dq)
}

// AccumulateGrad implements QueryModel. With e = s + r − o:
// ∂f/∂s = ∂f/∂r = −sign(e), ∂f/∂o = +sign(e).
func (m *TransE) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	gs := gb.Row(m.ent, int(t.S))
	gr := gb.Row(m.rel, int(t.R))
	go_ := gb.Row(m.ent, int(t.O))
	for i := range s {
		e := s[i] + r[i] - o[i]
		var g float32
		switch {
		case e > 0:
			g = 1
		case e < 0:
			g = -1
		}
		gs[i] += -g * upstream
		gr[i] += -g * upstream
		go_[i] += g * upstream
	}
}

// PostBatch implements QueryModel: project entity embeddings back onto the
// unit L2 ball, the constraint from the original TransE training procedure,
// leaving every row as projecting all of them after every step would. A row
// the projection left inside the ball, or unchanged, stays so until a step
// moves it; so only the step's rows and pending ones, whose last projection
// changed their bits yet left norm² > 1, are visited. A nil step visits all.
func (m *TransE) PostBatch(step *GradBuffer) {
	kept := m.pending[:0] // overwrites only entries already read
	project := func(i int) {
		if row := m.ent.M.Row(i); vecmath.SquaredL2Norm(row) > 1 && vecmath.NormalizeL2(row) && vecmath.SquaredL2Norm(row) > 1 {
			kept = append(kept, int32(i))
		}
	}
	if step == nil {
		for i := range m.cfg.NumEntities {
			project(i)
		}
	} else {
		for _, i := range m.pending {
			if step.Grad(m.ent, int(i)) == nil {
				project(int(i))
			}
		}
		for _, i := range step.Rows(m.ent) {
			project(int(i))
		}
	}
	m.pending = kept
}
