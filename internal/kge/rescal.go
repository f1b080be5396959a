package kge

import (
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// RESCAL (Nickel et al., 2011) is the bilinear factorization model: each
// entity gets a vector and each relation a full d×d matrix Wᵣ, scored as
// f(s, r, o) = sᵀ Wᵣ o. The relation table stores each matrix flattened
// row-major as one K×d² row, so the sparse per-row optimizer updates one
// relation's whole matrix as a unit.
type RESCAL struct{ tables }

// NewRESCAL constructs and initializes a RESCAL model.
func NewRESCAL(cfg Config) (*RESCAL, error) {
	m := &RESCAL{newTables("rescal", cfg, cfg.Dim, cfg.Dim*cfg.Dim)}
	m.initXavier(cfg.Dim)
	return m, nil
}

// relMatrix views relation r's flattened row as a d×d matrix.
func (m *RESCAL) relMatrix(r kg.RelationID) []float32 { return m.rel.M.Row(int(r)) }

// wo computes dst = Wᵣ·o.
func (m *RESCAL) wo(dst []float32, r kg.RelationID, o []float32) []float32 {
	vecmath.DotRows(dst[:m.cfg.Dim], m.relMatrix(r), o)
	return dst
}

// wts computes dst = Wᵣᵀ·s.
func (m *RESCAL) wts(dst []float32, r kg.RelationID, s []float32) []float32 {
	d := m.cfg.Dim
	w := m.relMatrix(r)
	for j := 0; j < d; j++ {
		dst[j] = 0
	}
	for i := 0; i < d; i++ {
		vecmath.Axpy(s[i], w[i*d:(i+1)*d], dst)
	}
	return dst
}

// Score implements QueryModel.
func (m *RESCAL) Score(t kg.Triple) float32 {
	s := m.ent.M.Row(int(t.S))
	o := m.ent.M.Row(int(t.O))
	tmp := make([]float32, m.cfg.Dim)
	m.wo(tmp, t.R, o)
	return vecmath.Dot(s, tmp)
}

// ScoreWithContext implements QueryModel.
func (m *RESCAL) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

// ObjectQuery implements QueryModel: q = Wᵣᵀ·s.
func (m *RESCAL) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	m.wts(q, r, m.ent.M.Row(int(s)))
	return nil
}

// BackpropObjectQuery implements QueryModel: ∂s = Wᵣ·dq, ∂Wᵣ = s·dqᵀ.
func (m *RESCAL) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, scr *GroupScratch) {
	d := m.cfg.Dim
	sRow := m.ent.M.Row(int(s))
	gb.Axpy(m.ent, int(s), 1, m.wo(scr.Buf(2, d), r, dq))
	gw := gb.Row(m.rel, int(r))
	for i := 0; i < d; i++ {
		vecmath.Axpy(sRow[i], dq, gw[i*d:(i+1)*d])
	}
}

// SubjectQuery implements QueryModel: q = Wᵣ·o.
func (m *RESCAL) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	m.wo(q, r, m.ent.M.Row(int(o)))
	return true
}

// BackpropSubjectQuery implements QueryModel: ∂o = Wᵣᵀ·dq, ∂Wᵣ = dq·oᵀ.
func (m *RESCAL) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, scr *GroupScratch) {
	d := m.cfg.Dim
	oRow := m.ent.M.Row(int(o))
	gb.Axpy(m.ent, int(o), 1, m.wts(scr.Buf(2, d), r, dq))
	gw := gb.Row(m.rel, int(r))
	for i := 0; i < d; i++ {
		vecmath.Axpy(dq[i], oRow, gw[i*d:(i+1)*d])
	}
}

// AccumulateGrad implements QueryModel:
//
//	∂f/∂s = Wᵣ·o, ∂f/∂o = Wᵣᵀ·s, ∂f/∂Wᵣ = s·oᵀ (outer product).
func (m *RESCAL) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	d := m.cfg.Dim
	s := m.ent.M.Row(int(t.S))
	o := m.ent.M.Row(int(t.O))

	tmp := make([]float32, d)
	gb.Axpy(m.ent, int(t.S), upstream, m.wo(tmp, t.R, o))
	gb.Axpy(m.ent, int(t.O), upstream, m.wts(tmp, t.R, s))

	gw := gb.Row(m.rel, int(t.R))
	for i := 0; i < d; i++ {
		vecmath.Axpy(upstream*s[i], o, gw[i*d:(i+1)*d])
	}
}
