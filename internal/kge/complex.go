package kge

import "repro/internal/kg"

// ComplEx (Trouillon et al., 2016) extends DistMult to complex-valued
// embeddings, scoring with the real part of the Hermitian trilinear product:
//
//	f(s, r, o) = Re(⟨s, r, conj(o)⟩)
//	           = Σₖ s_re·r_re·o_re + s_im·r_re·o_im + s_re·r_im·o_im − s_im·r_im·o_re
//
// The asymmetry introduced by the conjugate lets ComplEx model antisymmetric
// relations, which DistMult cannot. Storage: each embedding is a single
// float32 vector of length 2·Dim, real components first, imaginary second.
type ComplEx struct{ tables }

// NewComplEx constructs and initializes a ComplEx model. cfg.Dim is the
// number of complex components; the storage width is 2·Dim.
func NewComplEx(cfg Config) (*ComplEx, error) {
	m := &ComplEx{newTables("complex", cfg, 2*cfg.Dim, 2*cfg.Dim)}
	m.initXavier(2 * cfg.Dim)
	return m, nil
}

// split views a 2d-length storage row as (real, imaginary) halves.
func (m *ComplEx) split(row []float32) (re, im []float32) {
	d := m.cfg.Dim
	return row[:d], row[d:]
}

// Score implements QueryModel.
func (m *ComplEx) Score(t kg.Triple) float32 {
	sre, sim := m.split(m.ent.M.Row(int(t.S)))
	rre, rim := m.split(m.rel.M.Row(int(t.R)))
	ore, oim := m.split(m.ent.M.Row(int(t.O)))
	var f float32
	for i := range sre {
		f += sre[i]*rre[i]*ore[i] +
			sim[i]*rre[i]*oim[i] +
			sre[i]*rim[i]*oim[i] -
			sim[i]*rim[i]*ore[i]
	}
	return f
}

// ScoreWithContext implements QueryModel.
func (m *ComplEx) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

// ObjectQuery implements QueryModel. The score is linear in o, with
//
//	q_re = s_re∘r_re − s_im∘r_im   (coefficient of o_re)
//	q_im = s_im∘r_re + s_re∘r_im   (coefficient of o_im)
//
// so the object sweep is a single product over the 2d storage.
func (m *ComplEx) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	d := m.cfg.Dim
	sre, sim := m.split(m.ent.M.Row(int(s)))
	rre, rim := m.split(m.rel.M.Row(int(r)))
	for i := 0; i < d; i++ {
		q[i] = sre[i]*rre[i] - sim[i]*rim[i]
		q[d+i] = sim[i]*rre[i] + sre[i]*rim[i]
	}
	return nil
}

// BackpropObjectQuery implements QueryModel with the Hermitian chain rule:
//
//	∂s_re = r_re∘dq_re + r_im∘dq_im   ∂s_im = r_re∘dq_im − r_im∘dq_re
//	∂r_re = s_re∘dq_re + s_im∘dq_im   ∂r_im = s_re∘dq_im − s_im∘dq_re
func (m *ComplEx) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	d := m.cfg.Dim
	sre, sim := m.split(m.ent.M.Row(int(s)))
	rre, rim := m.split(m.rel.M.Row(int(r)))
	wre, wim := m.split(dq)
	gs := gb.Row(m.ent, int(s))
	gr := gb.Row(m.rel, int(r))
	for i := 0; i < d; i++ {
		gs[i] += rre[i]*wre[i] + rim[i]*wim[i]
		gs[d+i] += rre[i]*wim[i] - rim[i]*wre[i]
		gr[i] += sre[i]*wre[i] + sim[i]*wim[i]
		gr[d+i] += sre[i]*wim[i] - sim[i]*wre[i]
	}
}

// SubjectQuery implements QueryModel: linear in s with
//
//	q_re = r_re∘o_re + r_im∘o_im
//	q_im = r_re∘o_im − r_im∘o_re
func (m *ComplEx) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	d := m.cfg.Dim
	rre, rim := m.split(m.rel.M.Row(int(r)))
	ore, oim := m.split(m.ent.M.Row(int(o)))
	for i := 0; i < d; i++ {
		q[i] = rre[i]*ore[i] + rim[i]*oim[i]
		q[d+i] = rre[i]*oim[i] - rim[i]*ore[i]
	}
	return true
}

// BackpropSubjectQuery implements QueryModel:
//
//	∂r_re = dq_re∘o_re + dq_im∘o_im   ∂r_im = dq_re∘o_im − dq_im∘o_re
//	∂o_re = dq_re∘r_re − dq_im∘r_im   ∂o_im = dq_im∘r_re + dq_re∘r_im
func (m *ComplEx) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	d := m.cfg.Dim
	rre, rim := m.split(m.rel.M.Row(int(r)))
	ore, oim := m.split(m.ent.M.Row(int(o)))
	wre, wim := m.split(dq)
	gr := gb.Row(m.rel, int(r))
	go_ := gb.Row(m.ent, int(o))
	for i := 0; i < d; i++ {
		gr[i] += wre[i]*ore[i] + wim[i]*oim[i]
		gr[d+i] += wre[i]*oim[i] - wim[i]*ore[i]
		go_[i] += wre[i]*rre[i] - wim[i]*rim[i]
		go_[d+i] += wim[i]*rre[i] + wre[i]*rim[i]
	}
}

// AccumulateGrad implements QueryModel with the partial derivatives of the
// four-term score expansion.
func (m *ComplEx) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	d := m.cfg.Dim
	sre, sim := m.split(m.ent.M.Row(int(t.S)))
	rre, rim := m.split(m.rel.M.Row(int(t.R)))
	ore, oim := m.split(m.ent.M.Row(int(t.O)))
	gs := gb.Row(m.ent, int(t.S))
	gr := gb.Row(m.rel, int(t.R))
	go_ := gb.Row(m.ent, int(t.O))
	for i := 0; i < d; i++ {
		gs[i] += upstream * (rre[i]*ore[i] + rim[i]*oim[i])
		gs[d+i] += upstream * (rre[i]*oim[i] - rim[i]*ore[i])
		gr[i] += upstream * (sre[i]*ore[i] + sim[i]*oim[i])
		gr[d+i] += upstream * (sre[i]*oim[i] - sim[i]*ore[i])
		go_[i] += upstream * (sre[i]*rre[i] - sim[i]*rim[i])
		go_[d+i] += upstream * (sim[i]*rre[i] + sre[i]*rim[i])
	}
}
