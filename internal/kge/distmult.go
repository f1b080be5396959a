package kge

import (
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// DistMult (Yang et al., 2014) is the diagonal restriction of RESCAL: each
// relation is a diagonal matrix, giving the trilinear scoring function
// f(s, r, o) = sᵀ diag(r) o = Σᵢ sᵢ rᵢ oᵢ. The diagonality makes every
// relation symmetric — a known expressiveness limit the paper notes.
type DistMult struct{ tables }

// NewDistMult constructs and initializes a DistMult model.
func NewDistMult(cfg Config) (*DistMult, error) {
	m := &DistMult{newTables("distmult", cfg, cfg.Dim, cfg.Dim)}
	m.initXavier(cfg.Dim)
	return m, nil
}

// Score implements QueryModel.
func (m *DistMult) Score(t kg.Triple) float32 {
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	var f float32
	for i := range s {
		f += s[i] * r[i] * o[i]
	}
	return f
}

// ScoreWithContext implements QueryModel.
func (m *DistMult) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

// ObjectQuery implements QueryModel: q = s∘r.
func (m *DistMult) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	vecmath.Hadamard(q, m.ent.M.Row(int(s)), m.rel.M.Row(int(r)))
	return nil
}

// BackpropObjectQuery implements QueryModel: ∂s = dq∘r, ∂r = dq∘s.
func (m *DistMult) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	sRow := m.ent.M.Row(int(s))
	rRow := m.rel.M.Row(int(r))
	gs := gb.Row(m.ent, int(s))
	gr := gb.Row(m.rel, int(r))
	for i := range dq {
		gs[i] += dq[i] * rRow[i]
		gr[i] += dq[i] * sRow[i]
	}
}

// SubjectQuery implements QueryModel: by symmetry q = r∘o.
func (m *DistMult) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	vecmath.Hadamard(q, m.rel.M.Row(int(r)), m.ent.M.Row(int(o)))
	return true
}

// BackpropSubjectQuery implements QueryModel: ∂r = dq∘o, ∂o = dq∘r.
func (m *DistMult) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	rRow := m.rel.M.Row(int(r))
	oRow := m.ent.M.Row(int(o))
	gr := gb.Row(m.rel, int(r))
	go_ := gb.Row(m.ent, int(o))
	for i := range dq {
		gr[i] += dq[i] * oRow[i]
		go_[i] += dq[i] * rRow[i]
	}
}

// AccumulateGrad implements QueryModel:
//
//	∂f/∂s = r∘o, ∂f/∂r = s∘o, ∂f/∂o = s∘r.
func (m *DistMult) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	s := m.ent.M.Row(int(t.S))
	r := m.rel.M.Row(int(t.R))
	o := m.ent.M.Row(int(t.O))
	gs := gb.Row(m.ent, int(t.S))
	gr := gb.Row(m.rel, int(t.R))
	go_ := gb.Row(m.ent, int(t.O))
	for i := range s {
		gs[i] += upstream * r[i] * o[i]
		gr[i] += upstream * s[i] * o[i]
		go_[i] += upstream * s[i] * r[i]
	}
}
