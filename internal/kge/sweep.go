package kge

import (
	"fmt"
	"sync"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// SweepGeometry classifies the score geometry of a model's object-side
// corruption sweep. It is what the pruned-ranking index (internal/prune)
// keys its bound derivations on: inner-product sweeps admit a
// Cauchy–Schwarz cell upper bound, distance sweeps a triangle-inequality
// one ("Knowledge Graph Embedding for Link Prediction: A Comparative
// Analysis" groups the six models the same way).
type SweepGeometry int

const (
	// SweepDot: score(o) = E.Row(o)·q (+ SweepBias()[o] when non-nil).
	// DistMult, ComplEx, RESCAL, HolE, and ConvE all reduce to this.
	SweepDot SweepGeometry = iota
	// SweepL1: score(o) = −Σⱼ|qⱼ − E.Row(o)ⱼ| (TransE).
	SweepL1
)

// QueryModel is the contract a model implements; Derive builds every other
// operation in this package from it. The parameter set must hold the N×D
// table every sweep scores against under "entity", one row per relation
// under "relation", and may hold an N×1 per-entity score bias under
// "entbias" (only ConvE does).
//
// Score and AccumulateGrad are the per-triple reference. The two queries
// factor the same score by side:
//
//	score(s, r, o) = geometry(ObjectQuery(s, r), E[o]) + bias[o]
//	               = geometry(SubjectQuery(r, o), E[s])
//
// where geometry is a dot product or a negated distance (SweepGeometry),
// and each Backprop method is its query's adjoint: given dq = ∂L/∂q it
// accumulates the gradient of every parameter the query read. The sweeps
// and gradients derived from the queries agree with the per-triple
// reference up to float32 reassociation.
//
// Implementations must be safe for concurrent readers.
type QueryModel interface {
	// Name returns the canonical lowercase model name ("transe", …).
	Name() string
	// Dim returns the embedding size l.
	Dim() int
	// Params exposes the named parameter tables.
	Params() *ParamSet
	// Score returns f(t; Θ).
	Score(t kg.Triple) float32
	// ScoreWithContext is Score plus a forward context; see Trainable.
	ScoreWithContext(t kg.Triple, reuse GradContext) (float32, GradContext)
	// AccumulateGrad accumulates upstream · ∂Score(t)/∂θ into gb; ctx is
	// what ScoreWithContext returned for t, or nil.
	AccumulateGrad(t kg.Triple, ctx GradContext, upstream float32, gb *GradBuffer)
	// PostBatch applies constraints after an optimizer step; see Trainable.
	PostBatch(step *GradBuffer)
	// SweepGeometry returns the score family of both sweeps.
	SweepGeometry() SweepGeometry

	// ObjectQuery overwrites q, which has the entity table's width, with
	// q(s, r) and returns the forward state its adjoint needs (nil for models
	// whose adjoint reads only the parameters); reuse is as in ScoreWithContext.
	ObjectQuery(s kg.EntityID, r kg.RelationID, q []float32, reuse GradContext) GradContext
	// BackpropObjectQuery is ObjectQuery's adjoint. ctx is what ObjectQuery
	// returned for (s, r), or nil to have it recomputed. Slot 2 of scr is
	// the adjoint's to use; slots 0 and 1 hold the caller's q and dq.
	BackpropObjectQuery(s kg.EntityID, r kg.RelationID, ctx GradContext, dq []float32, gb *GradBuffer, scr *GroupScratch)
	// SubjectQuery overwrites q with q(r, o) and reports true, or reports false
	// when the score does not factor on the subject side (ConvE: the
	// convolution reads the subject); derived subject-side operations then
	// fall back to the per-triple reference.
	SubjectQuery(r kg.RelationID, o kg.EntityID, q []float32) bool
	// BackpropSubjectQuery is SubjectQuery's adjoint, with the scratch
	// convention of BackpropObjectQuery. It is never called on a model whose
	// SubjectQuery reports false.
	BackpropSubjectQuery(r kg.RelationID, o kg.EntityID, dq []float32, gb *GradBuffer, scr *GroupScratch)
}

// ObjectSweeper exposes the linear structure of a model's ScoreAllObjects
// sweep: a per-(s, r) query vector plus a fixed entity table, combined by
// one of the two geometries above. A model implementing it can be ranked
// through the prescreen-then-rerank path (internal/prune, internal/eval's
// RankObjectsPruned) instead of always paying the dense O(|E|·d) sweep.
//
// Exactness contract: rescoring entity o from the built query with the
// shared kernels (vecmath.MatVecRange on aligned 4-row blocks for SweepDot,
// the per-row L1Distance kernel for SweepL1, plus the single bias
// add) reproduces the dense sweep's float32 output bit for bit. That
// contract is what lets exact-mode pruning return byte-identical discovery
// results; Derived meets it because its dense sweeps run the same query
// through the same kernels.
// Only bench/kgbench's pruned-ranking ablation still reads this interface.
type ObjectSweeper interface {
	Model
	// SweepGeometry returns the score family of the object sweep.
	SweepGeometry() SweepGeometry
	// SweepDim returns the width of the sweep's query and entity vectors —
	// the entity table's column count (2·Dim for ComplEx).
	SweepDim() int
	// SweepEntityTable returns the NumEntities×SweepDim table the sweep
	// scores against. Callers must treat it as read-only.
	SweepEntityTable() *vecmath.Matrix
	// SweepBias returns the per-entity additive bias applied after the dot
	// product, or nil when the model has none. Only ConvE has one.
	SweepBias() []float32
	// BuildObjectQuery writes the (s, r) object-sweep query into dst, which
	// must have length SweepDim.
	BuildObjectQuery(s kg.EntityID, r kg.RelationID, dst []float32)
}

// Derived is a QueryModel with every derived operation attached: it
// implements Trainable and ObjectSweeper, and carries the batch sweeps
// (this file), the KvsAll backward pass (kvsall.go) and the grouped
// negative-sampling operations (groups.go). Each is written here once, over
// the contract and the vecmath kernels, for all models.
type Derived struct {
	QueryModel
	geom      SweepGeometry
	ent, bias *Param // the "entity" table and the "entbias" one, or nil
	nRel      int
}

// Derive attaches the derived operations to q.
func Derive(q QueryModel) *Derived {
	ps := q.Params()
	ent, rel := ps.Get("entity"), ps.Get("relation")
	if ent == nil || rel == nil {
		panic(fmt.Sprintf("kge: model %q lacks an \"entity\" or \"relation\" parameter table", q.Name()))
	}
	return &Derived{QueryModel: q, geom: q.SweepGeometry(), ent: ent, bias: ps.Get("entbias"), nRel: rel.M.Rows}
}

// NumEntities implements Model.
func (d *Derived) NumEntities() int { return d.ent.M.Rows }

// NumRelations implements Model.
func (d *Derived) NumRelations() int { return d.nRel }

// SweepDim implements ObjectSweeper.
func (d *Derived) SweepDim() int { return d.ent.M.Cols }

// SweepEntityTable implements ObjectSweeper.
func (d *Derived) SweepEntityTable() *vecmath.Matrix { return d.ent.M }

// SweepBias implements ObjectSweeper. The bias table is N×1, so its backing
// data is already the flat bias vector.
func (d *Derived) SweepBias() []float32 {
	if d.bias == nil {
		return nil
	}
	return d.bias.M.Data
}

// BuildObjectQuery implements ObjectSweeper.
func (d *Derived) BuildObjectQuery(s kg.EntityID, r kg.RelationID, dst []float32) {
	if len(dst) != d.ent.M.Cols {
		panic("kge: object-sweep query buffer has wrong length")
	}
	d.ObjectQuery(s, r, dst, nil)
}

// ScoreAllObjects implements Model: the one-row case of ScoreContextsBatch.
func (d *Derived) ScoreAllObjects(s kg.EntityID, r kg.RelationID, out []float32) []float32 {
	d.ScoreContextsBatch([]kg.EntityID{s}, []kg.RelationID{r},
		&vecmath.Matrix{Rows: 1, Cols: len(out), Data: out})
	return out
}

// ScoreAllSubjects implements Model: the one-row case of
// ScoreAllSubjectsBatch.
func (d *Derived) ScoreAllSubjects(r kg.RelationID, o kg.EntityID, out []float32) []float32 {
	ScoreAllSubjectsBatch(d, []kg.EntityID{o}, r, &vecmath.Matrix{Rows: 1, Cols: len(out), Data: out})
	return out
}

// ScoreContextsBatch writes score(ss[j], rs[j], o) for every entity o into
// row j of out, which must be len(ss)×NumEntities: one query matrix, one
// sweep. Row j is bit-identical to ScoreAllObjects(ss[j], rs[j], ...) — the
// batch is a scheduling change, not a numerical one, which is what keeps
// discovery output and training digests independent of how rows are grouped.
func (d *Derived) ScoreContextsBatch(ss []kg.EntityID, rs []kg.RelationID, out *vecmath.Matrix) {
	checkCtxBatch(ss, rs, out, d.ent.M.Rows)
	d.sweepObjects(ss, rs, 0, out)
}

// sweepObjects scores the object queries (ss[j], rs[j]), or (ss[j], r) when
// rs is nil, into the rows of out, building them in a pooled query matrix.
func (d *Derived) sweepObjects(ss []kg.EntityID, rs []kg.RelationID, r kg.RelationID, out *vecmath.Matrix) {
	q := sweepQueries(len(ss), d.ent.M.Cols)
	for j, s := range ss {
		if rs != nil {
			r = rs[j]
		}
		d.ObjectQuery(s, r, q.Row(j), nil)
	}
	d.sweep(out, q, d.SweepBias())
	queryPool.Put(q)
}

// queryPool holds the query matrices of the scoring sweeps, which live for
// one sweep, so that a warm sweep allocates none.
var queryPool = sync.Pool{New: func() any { return new(vecmath.Matrix) }}

// sweepQueries takes a rows×cols query matrix from queryPool; the caller
// Puts it back.
func sweepQueries(rows, cols int) *vecmath.Matrix {
	q := queryPool.Get().(*vecmath.Matrix)
	if cap(q.Data) < rows*cols {
		q.Data = make([]float32, rows*cols)
	}
	q.Rows, q.Cols, q.Data = rows, cols, q.Data[:rows*cols]
	return q
}

// ScoreAllObjectsBatch is the relation-blocked object sweep discovery ranks
// from: ScoreContextsBatch with one relation for every subject. A Model that
// is not Derived gets one ScoreAllObjects sweep per subject, so callers can
// schedule uniformly by relation block.
func ScoreAllObjectsBatch(m Model, ss []kg.EntityID, r kg.RelationID, out *vecmath.Matrix) {
	checkBatchBuf(out, len(ss), m.NumEntities())
	d, ok := m.(*Derived)
	if !ok {
		for j, s := range ss {
			m.ScoreAllObjects(s, r, out.Row(j))
		}
		return
	}
	d.sweepObjects(ss, nil, r, out)
}

// ScoreAllSubjectsBatch is ScoreAllObjectsBatch's subject side: row j of
// out, which must be len(os)×NumEntities, receives score(s, r, os[j]) for
// every entity s, from one matrix of SubjectQuery rows and one sweep, each row
// bit-identical to a one-row sweep. A Model that is not Derived gets one
// ScoreAllSubjects call per row, and one whose SubjectQuery reports false
// (ConvE) the per-triple Score.
func ScoreAllSubjectsBatch(m Model, os []kg.EntityID, r kg.RelationID, out *vecmath.Matrix) {
	checkBatchBuf(out, len(os), m.NumEntities())
	d, ok := m.(*Derived)
	if !ok {
		for j, o := range os {
			m.ScoreAllSubjects(r, o, out.Row(j))
		}
		return
	}
	q := sweepQueries(len(os), d.ent.M.Cols)
	defer queryPool.Put(q)
	for j, o := range os {
		if !d.SubjectQuery(r, o, q.Row(j)) {
			for j, o := range os {
				row := out.Row(j)
				for s := range row {
					row[s] = d.Score(kg.Triple{S: kg.EntityID(s), R: r, O: o})
				}
			}
			return
		}
	}
	d.sweep(out, q, nil)
}

// sweep scores every query row against every entity:
// out.Row(j)[o] = geometry(q.Row(j), E[o]) + bias[o].
//
// The dot family is one vecmath.MatMat, whose rows are bit-identical to
// per-row MatVec calls, and TransE one vecmath.MatNegL1, bit-identical to
// per-pair L1Distance calls.
func (d *Derived) sweep(out, q *vecmath.Matrix, bias []float32) {
	if d.geom == SweepL1 {
		vecmath.MatNegL1(out, d.ent.M, q)
		return
	}
	vecmath.MatMat(out, d.ent.M, q)
	if bias != nil {
		for j := 0; j < out.Rows; j++ {
			row := out.Row(j)
			for o := range row {
				row[o] += bias[o]
			}
		}
	}
}

func checkBatchBuf(out *vecmath.Matrix, rows, n int) {
	if out.Rows != rows || out.Cols != n {
		panic(fmt.Sprintf("kge: score buffer is %dx%d, want %dx%d", out.Rows, out.Cols, rows, n))
	}
}

func checkCtxBatch(ss []kg.EntityID, rs []kg.RelationID, mat *vecmath.Matrix, n int) {
	if len(ss) != len(rs) {
		panic(fmt.Sprintf("kge: context batch has %d subjects, %d relations", len(ss), len(rs)))
	}
	checkBatchBuf(mat, len(ss), n)
}
