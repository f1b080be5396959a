package kge

import (
	"math/rand"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// toyModel is a seventh model that exists only in the tests: "shifted
// DistMult", f(s, r, o) = Σᵢ sᵢ·rᵢ·o₍ᵢ₊₁₎ (indices mod d) — asymmetric, and
// with a query shape none of the six shipped models has. It implements
// QueryModel and nothing else, through the package's exported names only;
// every sweep, batch and training operation it is tested through comes from
// Derive. allModels includes it, so each derived-operation check in this
// package (sweep vs Score, gradient check, KvsAll vs per-triple, group vs
// per-triple, batch bit-identity) runs on it, and contract_test.go trains
// and ranks it through internal/train and internal/eval.
type toyModel struct {
	dim      int
	ps       *ParamSet
	ent, rel *Param
}

// NewToyModel builds the toy model behind Derive for the external tests.
func NewToyModel(cfg Config) *Derived {
	m := &toyModel{dim: cfg.Dim, ps: NewParamSet()}
	m.ent = m.ps.Add("entity", cfg.NumEntities, cfg.Dim)
	m.rel = m.ps.Add("relation", cfg.NumRelations, cfg.Dim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, table := range []*vecmath.Matrix{m.ent.M, m.rel.M} {
		for i := 0; i < table.Rows; i++ {
			vecmath.XavierInit(rng, table.Row(i), cfg.Dim, cfg.Dim)
		}
	}
	return Derive(m)
}

func (m *toyModel) Name() string                 { return "toy" }
func (m *toyModel) Dim() int                     { return m.dim }
func (m *toyModel) Params() *ParamSet            { return m.ps }
func (m *toyModel) PostBatch(*GradBuffer)        {}
func (m *toyModel) SweepGeometry() SweepGeometry { return SweepDot }

func (m *toyModel) Score(t kg.Triple) float32 {
	s, r, o := m.ent.M.Row(int(t.S)), m.rel.M.Row(int(t.R)), m.ent.M.Row(int(t.O))
	var f float32
	for i := range s {
		f += s[i] * r[i] * o[(i+1)%m.dim]
	}
	return f
}

func (m *toyModel) ScoreWithContext(t kg.Triple, _ GradContext) (float32, GradContext) {
	return m.Score(t), nil
}

func (m *toyModel) AccumulateGrad(t kg.Triple, _ GradContext, upstream float32, gb *GradBuffer) {
	s, r, o := m.ent.M.Row(int(t.S)), m.rel.M.Row(int(t.R)), m.ent.M.Row(int(t.O))
	gs, gr, go_ := gb.Row(m.ent, int(t.S)), gb.Row(m.rel, int(t.R)), gb.Row(m.ent, int(t.O))
	for i := range s {
		j := (i + 1) % m.dim
		gs[i] += upstream * r[i] * o[j]
		gr[i] += upstream * s[i] * o[j]
		go_[j] += upstream * s[i] * r[i]
	}
}

// ObjectQuery: q₍ᵢ₊₁₎ = sᵢ·rᵢ.
func (m *toyModel) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ GradContext) GradContext {
	sRow, rRow := m.ent.M.Row(int(s)), m.rel.M.Row(int(r))
	for i := range sRow {
		q[(i+1)%m.dim] = sRow[i] * rRow[i]
	}
	return nil
}

func (m *toyModel) BackpropObjectQuery(s kg.EntityID, r kg.RelationID, _ GradContext, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	sRow, rRow := m.ent.M.Row(int(s)), m.rel.M.Row(int(r))
	gs, gr := gb.Row(m.ent, int(s)), gb.Row(m.rel, int(r))
	for i := range sRow {
		j := (i + 1) % m.dim
		gs[i] += dq[j] * rRow[i]
		gr[i] += dq[j] * sRow[i]
	}
}

// SubjectQuery: qᵢ = rᵢ·o₍ᵢ₊₁₎.
func (m *toyModel) SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool {
	rRow, oRow := m.rel.M.Row(int(r)), m.ent.M.Row(int(o))
	for i := range rRow {
		q[i] = rRow[i] * oRow[(i+1)%m.dim]
	}
	return true
}

func (m *toyModel) BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, _ *GroupScratch) {
	rRow, oRow := m.rel.M.Row(int(r)), m.ent.M.Row(int(o))
	gr, go_ := gb.Row(m.rel, int(r)), gb.Row(m.ent, int(o))
	for i := range rRow {
		j := (i + 1) % m.dim
		gr[i] += dq[i] * oRow[j]
		go_[j] += dq[i] * rRow[i]
	}
}
