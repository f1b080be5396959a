package kge

import (
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// HolE (Nickel et al., 2016) scores a triple with circular correlation,
// inspired by holographic associative memory:
//
//	f(s, r, o) = rᵀ (s ⋆ o),   (s ⋆ o)[k] = Σᵢ sᵢ · o₍ᵢ₊ₖ₎ mod l
//
// Correlation compresses the pairwise interaction matrix s·oᵀ into a single
// l-vector, giving RESCAL-like interactions at DistMult-like cost;
// vecmath.Correlate and vecmath.Convolve compute ⋆ and its adjoint ∗.
// HolE is equivalent to ComplEx up to a change of basis (Hayashi & Shimbo,
// 2017) — a fact the test suite exploits as a sanity property.
type HolE struct{ tables }

// NewHolE constructs and initializes a HolE model.
func NewHolE(cfg Config) (*HolE, error) {
	m := &HolE{newTables("hole", cfg, cfg.Dim, cfg.Dim)}
	m.initXavier(cfg.Dim)
	return m, nil
}

// Score implements QueryModel.
func (m *HolE) Score(t kg.Triple) float32 {
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	corr := make([]float32, m.cfg.Dim)
	vecmath.Correlate(corr, s, o)
	return vecmath.Dot(r, corr)
}

// ScoreWithContext implements QueryModel.
func (m *HolE) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

// ObjectQuery implements QueryModel. f is linear in o: f = o·(r * s) where *
// is circular convolution, so q = convolve(r, s).
func (m *HolE) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	vecmath.Convolve(q, m.rel.M.Row(int(r)), m.ent.M.Row(int(s)))
	return nil
}

// BackpropObjectQuery implements QueryModel: ∂s = r ⋆ dq, ∂r = s ⋆ dq
// (correlation is linear in o).
func (m *HolE) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, scr *GroupScratch) {
	sRow := m.ent.M.Row(int(s))
	rRow := m.rel.M.Row(int(r))
	tmp := scr.Buf(2, m.cfg.Dim)
	gb.Axpy(m.ent, int(s), 1, vecmath.Correlate(tmp, rRow, dq))
	gb.Axpy(m.rel, int(r), 1, vecmath.Correlate(tmp, sRow, dq))
}

// SubjectQuery implements QueryModel. f is linear in s: f = s·(r ⋆ o), so
// q = correlate(r, o).
func (m *HolE) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	vecmath.Correlate(q, m.rel.M.Row(int(r)), m.ent.M.Row(int(o)))
	return true
}

// BackpropSubjectQuery implements QueryModel: ∂r = dq ⋆ o, ∂o = r * dq (both
// linear in s).
func (m *HolE) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, scr *GroupScratch) {
	rRow := m.rel.M.Row(int(r))
	oRow := m.ent.M.Row(int(o))
	tmp := scr.Buf(2, m.cfg.Dim)
	gb.Axpy(m.rel, int(r), 1, vecmath.Correlate(tmp, dq, oRow))
	gb.Axpy(m.ent, int(o), 1, vecmath.Convolve(tmp, rRow, dq))
}

// AccumulateGrad implements QueryModel:
//
//	∂f/∂r = s ⋆ o, ∂f/∂s = r ⋆ o, ∂f/∂o = r * s (convolution).
func (m *HolE) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	d := m.cfg.Dim
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	tmp := make([]float32, d)
	gb.Axpy(m.rel, int(t.R), upstream, vecmath.Correlate(tmp, s, o))
	gb.Axpy(m.ent, int(t.S), upstream, vecmath.Correlate(tmp, r, o))
	gb.Axpy(m.ent, int(t.O), upstream, vecmath.Convolve(tmp, r, s))
}
