package eval

import (
	"math"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// linearModel is a test model behind kge.Derive: score(s, r, o) =
// query(s, r)·E[o] over a fixed entity table, the object-sweep shape of every
// shipped model. Its SubjectQuery reports false, so subject sweeps score per
// triple, as ConvE's do. It is never trained.
type linearModel struct {
	name  string
	ps    *kge.ParamSet
	ent   *kge.Param
	query func(s kg.EntityID, r kg.RelationID, q []float32)
}

// newLinearModel builds an n-entity, k-relation linearModel whose entity rows,
// dim wide, are filled by entity.
func newLinearModel(name string, n, k, dim int, entity func(o int, e []float32),
	query func(s kg.EntityID, r kg.RelationID, q []float32)) *kge.Derived {
	m := &linearModel{name: name, ps: kge.NewParamSet(), query: query}
	m.ent = m.ps.Add("entity", n, dim)
	m.ps.Add("relation", k, 1)
	for o := 0; o < n; o++ {
		entity(o, m.ent.M.Row(o))
	}
	return kge.Derive(m)
}

func (m *linearModel) Name() string                     { return m.name }
func (m *linearModel) Dim() int                         { return m.ent.M.Cols }
func (m *linearModel) Params() *kge.ParamSet            { return m.ps }
func (m *linearModel) PostBatch(*kge.GradBuffer)        {}
func (m *linearModel) SweepGeometry() kge.SweepGeometry { return kge.SweepDot }

func (m *linearModel) Score(t kg.Triple) float32 {
	q := make([]float32, m.ent.M.Cols)
	m.query(t.S, t.R, q)
	var f float32
	for i, e := range m.ent.M.Row(int(t.O)) {
		f += q[i] * e
	}
	return f
}

func (m *linearModel) ScoreWithContext(t kg.Triple, _ kge.GradContext) (float32, kge.GradContext) {
	return m.Score(t), nil
}

func (m *linearModel) ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, _ kge.GradContext) kge.GradContext {
	m.query(s, r, q)
	return nil
}

func (m *linearModel) SubjectQuery(kg.RelationID, kg.EntityID, []float32) bool { return false }

func (m *linearModel) AccumulateGrad(kg.Triple, kge.GradContext, float32, *kge.GradBuffer) {
	panic("linearModel is not trainable")
}

func (m *linearModel) BackpropObjectQuery(kg.EntityID, kg.RelationID, kge.GradContext, []float32, *kge.GradBuffer, *kge.GroupScratch) {
	panic("linearModel is not trainable")
}

func (m *linearModel) BackpropSubjectQuery(kg.RelationID, kg.EntityID, []float32, *kge.GradBuffer, *kge.GroupScratch) {
	panic("linearModel is not trainable")
}

// stubModel scores triples by a fixed per-entity table: score(s, r, o) =
// table[o] + 0.001·s (object ranking then depends only on the table).
func stubModel(n, k int, table []float32) *kge.Derived {
	return newLinearModel("stub", n, k, 2,
		func(o int, e []float32) { e[0], e[1] = table[o], 1 },
		func(s kg.EntityID, _ kg.RelationID, q []float32) { q[0], q[1] = 1, 0.001*float32(s) })
}

func TestRankObjectRawProtocol(t *testing.T) {
	// Entity scores: e0=0.1, e1=0.5, e2=0.9, e3=0.3.
	m := stubModel(4, 1, []float32{0.1, 0.5, 0.9, 0.3})
	r := NewRanker(m, nil)
	// Target o=1 (0.5): only e2 scores higher → rank 2.
	if got := r.RankObject(kg.Triple{S: 0, R: 0, O: 1}); got != 2 {
		t.Errorf("rank = %d, want 2", got)
	}
	// Best entity ranks 1.
	if got := r.RankObject(kg.Triple{S: 0, R: 0, O: 2}); got != 1 {
		t.Errorf("rank of best = %d, want 1", got)
	}
	// Worst entity ranks 4.
	if got := r.RankObject(kg.Triple{S: 0, R: 0, O: 0}); got != 4 {
		t.Errorf("rank of worst = %d, want 4", got)
	}
}

func TestRankObjectFilteredProtocol(t *testing.T) {
	m := stubModel(4, 1, []float32{0.1, 0.5, 0.9, 0.3})
	filter := kg.NewGraph()
	for i := 0; i < 4; i++ {
		filter.Entities.Intern(string(rune('a' + i)))
	}
	filter.Relations.Intern("r")
	// (0, r, 2) is a known true triple: it must be skipped when ranking
	// (0, r, 1), promoting it to rank 1.
	filter.Add(kg.Triple{S: 0, R: 0, O: 2})
	r := NewRanker(m, filter)
	if got := r.RankObject(kg.Triple{S: 0, R: 0, O: 1}); got != 1 {
		t.Errorf("filtered rank = %d, want 1", got)
	}
	// A different subject is unaffected by the filter entry.
	if got := r.RankObject(kg.Triple{S: 1, R: 0, O: 1}); got != 2 {
		t.Errorf("filtered rank for other subject = %d, want 2", got)
	}
}

func TestRankObjectTiesUseMeanPolicy(t *testing.T) {
	m := stubModel(5, 1, []float32{0.5, 0.5, 0.5, 0.5, 0.5})
	r := NewRanker(m, nil)
	// All five entities tie: greater=0, equal=4 → rank = 1 + 0 + 2 = 3.
	if got := r.RankObject(kg.Triple{S: 0, R: 0, O: 2}); got != 3 {
		t.Errorf("tie rank = %d, want 3 (mean policy)", got)
	}
}

// RankSubject mirrors RankObject for subject-side corruptions (s', r, o):
// the per-triple oracle Evaluate's subject side is held to. It shares no line
// with the scheduler: one one-row subject sweep, then |E| Contains probes.
func (r *Ranker) RankSubject(t kg.Triple) int {
	out := vecmath.NewMatrix(1, r.model.NumEntities())
	kge.ScoreAllSubjectsBatch(r.model, []kg.EntityID{t.O}, t.R, out)
	scores := out.Data
	target := scores[t.S]
	greater, equal := 0, 0
	for s, sc := range scores {
		if kg.EntityID(s) == t.S {
			continue
		}
		if r.filter != nil && r.filter.Contains(kg.Triple{S: kg.EntityID(s), R: t.R, O: t.O}) {
			continue
		}
		switch {
		case sc > target:
			greater++
		case sc == target:
			equal++
		}
	}
	return 1 + greater + equal/2
}

func TestRankSubject(t *testing.T) {
	// Make subject ranking depend on s: score = table[o] + 0.001*s, so
	// higher s wins.
	m := stubModel(4, 1, []float32{0, 0, 0, 0})
	r := NewRanker(m, nil)
	if got := r.RankSubject(kg.Triple{S: 3, R: 0, O: 0}); got != 1 {
		t.Errorf("subject rank of best = %d, want 1", got)
	}
	if got := r.RankSubject(kg.Triple{S: 0, R: 0, O: 0}); got != 4 {
		t.Errorf("subject rank of worst = %d, want 4", got)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	m := stubModel(10, 1, []float32{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0})
	test := kg.NewGraph()
	for i := 0; i < 10; i++ {
		test.Entities.Intern(string(rune('a' + i)))
	}
	test.Relations.Intern("r")
	// Targets e0 (rank 1) and e1 (rank 2).
	test.Add(kg.Triple{S: 2, R: 0, O: 0})
	test.Add(kg.Triple{S: 3, R: 0, O: 1})
	res := Evaluate(NewRanker(m, nil), test, Options{})
	if res.N != 2 {
		t.Fatalf("N = %d, want 2", res.N)
	}
	wantMRR := (1.0 + 0.5) / 2
	if math.Abs(res.MRR-wantMRR) > 1e-12 {
		t.Errorf("MRR = %g, want %g", res.MRR, wantMRR)
	}
	if res.MeanRank != 1.5 {
		t.Errorf("MeanRank = %g, want 1.5", res.MeanRank)
	}
	if res.Hits[1] != 0.5 || res.Hits[3] != 1 || res.Hits[10] != 1 {
		t.Errorf("Hits = %v", res.Hits)
	}
}

func TestEvaluateBothSides(t *testing.T) {
	m := stubModel(5, 1, []float32{0.1, 0.2, 0.3, 0.4, 0.5})
	test := kg.NewGraph()
	for i := 0; i < 5; i++ {
		test.Entities.Intern(string(rune('a' + i)))
	}
	test.Relations.Intern("r")
	test.Add(kg.Triple{S: 1, R: 0, O: 2})
	res := Evaluate(NewRanker(m, nil), test, Options{BothSides: true})
	if res.N != 2 {
		t.Errorf("BothSides N = %d, want 2 (object + subject rank)", res.N)
	}
}

func TestEvaluateMaxTriples(t *testing.T) {
	m := stubModel(5, 1, []float32{1, 2, 3, 4, 5})
	test := kg.NewGraph()
	for i := 0; i < 5; i++ {
		test.Entities.Intern(string(rune('a' + i)))
	}
	test.Relations.Intern("r")
	for i := 0; i < 4; i++ {
		test.Add(kg.Triple{S: kg.EntityID(i), R: 0, O: kg.EntityID((i + 1) % 5)})
	}
	res := Evaluate(NewRanker(m, nil), test, Options{MaxTriples: 2})
	if res.N != 2 {
		t.Errorf("MaxTriples N = %d, want 2", res.N)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m := stubModel(3, 1, []float32{1, 2, 3})
	test := kg.NewGraph()
	res := Evaluate(NewRanker(m, nil), test, Options{})
	if res.N != 0 || res.MRR != 0 {
		t.Errorf("empty evaluation: %+v", res)
	}
}

func TestAggregate(t *testing.T) {
	res := Aggregate([]int{1, 2, 4}, []int{1, 3})
	wantMRR := (1 + 0.5 + 0.25) / 3
	if math.Abs(res.MRR-wantMRR) > 1e-12 {
		t.Errorf("MRR = %g, want %g", res.MRR, wantMRR)
	}
	if res.Hits[1] != 1.0/3 {
		t.Errorf("Hits@1 = %g", res.Hits[1])
	}
	if res.Hits[3] != 2.0/3 {
		t.Errorf("Hits@3 = %g", res.Hits[3])
	}
}

func TestMRROfRanks(t *testing.T) {
	mrr := func(ranks []int) float64 { return Aggregate(ranks, nil).MRR }
	if got := mrr(nil); got != 0 {
		t.Errorf("MRR of empty = %g", got)
	}
	if got := mrr([]int{1}); got != 1 {
		t.Errorf("MRR of rank 1 = %g", got)
	}
	if got := mrr([]int{2, 2}); got != 0.5 {
		t.Errorf("MRR = %g, want 0.5", got)
	}
}

func TestTheoreticalMRRThresholdFromPaper(t *testing.T) {
	// §4.2.2: "top_n = 500 sets a theoretical MRR threshold of 0.002 in the
	// case where all discovered facts are exactly ranked 500."
	ranks := make([]int, 100)
	for i := range ranks {
		ranks[i] = 500
	}
	if got := Aggregate(ranks, nil).MRR; math.Abs(got-0.002) > 1e-12 {
		t.Errorf("MRR of all-rank-500 = %g, want 0.002", got)
	}
}
