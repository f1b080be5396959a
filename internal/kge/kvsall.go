package kge

import (
	"repro/internal/kg"
	"repro/internal/vecmath"
)

// KvsAll ("1-N") scoring backpropagation. LibKGE's KvsAll training type —
// and the training procedure of the original ConvE paper — scores each
// (s, r) context against every entity simultaneously and applies binary
// cross-entropy against the multi-hot vector of true objects. This needs
// the gradient of the whole object sweep: given upstream[o] =
// ∂L/∂score(s, r, o) for all o, accumulate gradients into every touched
// parameter row. With score_o = q(s, r)·e_o + bias_o that is
//
//	∂L/∂e_o += upstream[o] · q        (one row per entity)
//	∂L/∂bias_o += upstream[o]
//	∂L/∂q    = Eᵀ · upstream          (then the model's adjoint)
//
// The trainer hands over a whole gradient chunk of contexts at once, so the
// entity table is walked once per chunk instead of once per context. On the
// dot geometry it computes dq and the bias only: gb keeps upstream and q as
// the entity rows' product form and builds a row where it is read.
//
// Determinism contract (this defines the trainer's digests): within
// one chunk, entity-table row o accumulates its upstream[j][o]·qⱼ
// contributions in ascending context order j, from zero, each context's dqⱼ
// accumulates Eᵀ·upstreamⱼ in ascending entity order o, and all entity-row
// updates of a chunk land before any adjoint's. A chunk of one context
// is therefore the plain per-context backward pass; a longer chunk differs
// from a sequence of one-context calls only in how a row that is both an
// object and some context's subject sees the two phases interleaved. Every
// schedule is a fixed function of the chunk content, so every worker count
// produces the same bits.

// AccumulateGradAllObjectsBatch accumulates the gradient of all object
// scores for every context (ss[j], rs[j]) given the per-context upstream
// rows of a len(ss)×NumEntities matrix. Rows with zero upstream are never
// touched: the optimizer's sparse-row semantics see exactly the rows a
// per-triple pass would. On the dot geometry gb must hold no entity rows,
// and it reads upstream until its Reset.
func (d *Derived) AccumulateGradAllObjectsBatch(ss []kg.EntityID, rs []kg.RelationID, upstream *vecmath.Matrix, gb *GradBuffer) {
	checkCtxBatch(ss, rs, upstream, d.ent.M.Rows)
	ctxs := make([]GradContext, len(ss))
	up := upstream
	if d.geom != SweepDot {
		up = nil
	}
	t := gb.product(d.ent, len(ss), up)
	q := &t.q
	for j := range ss {
		ctxs[j] = d.ObjectQuery(ss[j], rs[j], q.Row(j), nil)
	}
	var scr GroupScratch

	if d.geom != SweepDot {
		// The distance gradient has a per-entity residual term with no
		// product form, so each context walks the table on its own and runs
		// its adjoint before the next one starts.
		for j := range ss {
			dq := scr.Buf(1, q.Cols)
			for o, g := range upstream.Row(j) {
				if g != 0 {
					d.distanceGrad(g, q.Row(j), d.ent.M.Row(o), gb.Row(d.ent, o), dq)
				}
			}
			d.BackpropObjectQuery(ss[j], rs[j], ctxs[j], dq, gb, &scr)
		}
		return
	}

	// Entities outer, contexts inner: each embedding row is read, and its
	// bias row looked up, once per chunk, and the chunk's dq rows stay in
	// cache. Every row's additions keep their order.
	dq := vecmath.NewMatrix(len(ss), q.Cols)
	n := d.ent.M.Rows
	js, gs := make([]int, 0, len(ss)), make([]float32, 0, len(ss))
	for o := 0; o < n; o++ {
		if js, gs = vecmath.ColumnNonzeros(js, gs, upstream, o); len(js) == 0 {
			continue
		}
		t.rows, t.slot[o] = append(t.rows, int32(o)), -1
		vecmath.AxpyScatter(dq, gs, js, d.ent.M.Row(o))
		if d.bias != nil {
			vecmath.SumInto(&gb.Row(d.bias, o)[0], gs)
		}
	}
	for j := range ss {
		d.BackpropObjectQuery(ss[j], rs[j], ctxs[j], dq.Row(j), gb, &scr)
	}
}

// distanceGrad accumulates one candidate row of the L1 sweep. With the
// residual e = q − row and g = ∂d/∂e = sign(e), score = −d gives
// ∂score/∂row = +g and ∂score/∂q = −g: u·g is added to grow and subtracted
// from gq.
func (d *Derived) distanceGrad(u float32, q, row, grow, gq []float32) {
	for c := range q {
		e := q[c] - row[c]
		var g float32
		switch {
		case e > 0:
			g = 1
		case e < 0:
			g = -1
		}
		gq[c] += -g * u
		grow[c] += g * u
	}
}
