package kge

import (
	"fmt"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// Grouped contrastive scoring: negative-sampling training evaluates, per
// positive triple, one (s, r) context against 1+K object candidates (the
// positive plus its object-side corruptions) and the same (r, o) context
// against the subject-side corruptions. Scoring them one ScoreWithContext
// call at a time recomputes the shared half of the score 1+K times —
// DistMult's s∘r, RESCAL's Wᵣᵀs, HolE's r*s convolution, and most
// expensively ConvE's whole conv+FC forward pass. The group operations build
// the side's query once and sweep the candidate rows.
//
// The gradient identity is the same collapse: with uᵢ the per-candidate
// upstream, every per-triple chain into the shared side is linear in the
// candidate row, so the K chains fold into one adjoint of dq = Σᵢ uᵢ·eᵢ.
// Candidates with uᵢ = 0 are skipped and a group whose upstreams are all
// zero touches nothing — the optimizer's sparse row set is exactly the
// per-triple path's.
//
// Grouped results are float32-reassociated relative to per-triple calls
// (tolerance-level equal, not bitwise); within one group the accumulation
// order is fixed (candidates ascending), so the batched trainer's digests
// remain worker-count-invariant.

// GroupScratch carries one group from its scoring call to its gradient
// call: the float buffers both need (slot 0 the query, slot 1 dq, slot 2
// the adjoint's temporary) and the forward state in between, so the
// training hot loop stays allocation-free. A scratch is not safe for
// concurrent use and serves one group at a time (the trainer keeps one per
// side per worker).
type GroupScratch struct {
	bufs      [3][]float32
	ctx       GradContext   // ObjectQuery's forward state, handed back for reuse
	ctxs      []GradContext // the per-triple fallback's, one per candidate, likewise
	perTriple bool          // the subject group was scored per candidate, into ctxs
}

// Buf returns slot i as a zeroed length-n buffer, growing it on demand.
func (s *GroupScratch) Buf(i, n int) []float32 {
	if cap(s.bufs[i]) < n {
		s.bufs[i] = make([]float32, n)
		return s.bufs[i]
	}
	b := s.bufs[i][:n]
	clear(b)
	s.bufs[i] = b
	return b
}

func checkGroup(ids []kg.EntityID, buf []float32) {
	if len(ids) != len(buf) {
		panic(fmt.Sprintf("kge: group of %d candidates with buffer length %d", len(ids), len(buf)))
	}
}

// ScoreObjectsGroup writes Score(s, r, objs[i]) into out[i], leaving in scr
// what AccumulateGradObjectsGroup needs.
func (d *Derived) ScoreObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, out []float32, scr *GroupScratch) {
	checkGroup(objs, out)
	q := scr.Buf(0, d.ent.M.Cols)
	scr.ctx = d.ObjectQuery(s, r, q, scr.ctx)
	d.scoreRows(out, objs, q, d.SweepBias())
}

// AccumulateGradObjectsGroup is equivalent to per-candidate
// AccumulateGrad((s, r, objs[i]), ·, upstream[i], gb) in ascending i. It must
// follow ScoreObjectsGroup(s, r, objs, ·, scr) on the same scratch.
func (d *Derived) AccumulateGradObjectsGroup(s kg.EntityID, r kg.RelationID, objs []kg.EntityID, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(objs, upstream)
	q := scr.bufs[0]
	dq := scr.Buf(1, len(q))
	if d.backpropRows(objs, upstream, q, dq, d.bias != nil, gb) {
		d.BackpropObjectQuery(s, r, scr.ctx, dq, gb, scr)
	}
}

// ScoreSubjectsGroup writes Score(subjs[i], r, o) into out[i], leaving in
// scr what AccumulateGradSubjectsGroup needs. A model without a subject
// query is scored per candidate, keeping every forward context.
func (d *Derived) ScoreSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, out []float32, scr *GroupScratch) {
	checkGroup(subjs, out)
	q := scr.Buf(0, d.ent.M.Cols)
	if scr.perTriple = !d.SubjectQuery(r, o, q); !scr.perTriple {
		d.scoreRows(out, subjs, q, nil)
		return
	}
	for i, s := range subjs {
		if i == len(scr.ctxs) {
			scr.ctxs = append(scr.ctxs, nil)
		}
		out[i], scr.ctxs[i] = d.ScoreWithContext(kg.Triple{S: s, R: r, O: o}, scr.ctxs[i])
	}
}

// AccumulateGradSubjectsGroup is equivalent to per-candidate
// AccumulateGrad((subjs[i], r, o), ·, upstream[i], gb) in ascending i. It
// must follow ScoreSubjectsGroup(r, o, subjs, ·, scr) on the same scratch.
func (d *Derived) AccumulateGradSubjectsGroup(r kg.RelationID, o kg.EntityID, subjs []kg.EntityID, upstream []float32, gb *GradBuffer, scr *GroupScratch) {
	checkGroup(subjs, upstream)
	if scr.perTriple {
		for i, u := range upstream {
			if u != 0 {
				d.AccumulateGrad(kg.Triple{S: subjs[i], R: r, O: o}, scr.ctxs[i], u, gb)
			}
		}
		return
	}
	q := scr.bufs[0]
	dq := scr.Buf(1, len(q))
	var any bool
	if d.geom == SweepDot {
		any = d.backpropRows(subjs, upstream, q, dq, false, gb)
	} else {
		// A distance residual is evaluated in the object-side form
		// q(sᵢ, r) − e_o that Score uses, not against the subject query, so
		// its rounding — and with it the L1 sign pattern — is the per-triple
		// reference's. Here the candidate row is the query's subject, so the
		// roles in distanceGrad swap: +u·g flows to dq, −u·g to the row.
		oRow, qi := d.ent.M.Row(int(o)), scr.Buf(2, len(q))
		for i, u := range upstream {
			if u != 0 {
				any = true
				d.ObjectQuery(subjs[i], r, qi, nil)
				d.distanceGrad(u, qi, oRow, dq, gb.Row(d.ent, int(subjs[i])))
			}
		}
	}
	if any {
		d.BackpropSubjectQuery(r, o, dq, gb, scr)
	}
}

// scoreRows writes out[i] = geometry(q, E[ids[i]]) + bias[ids[i]].
func (d *Derived) scoreRows(out []float32, ids []kg.EntityID, q, bias []float32) {
	if d.geom == SweepL1 {
		for i, id := range ids {
			out[i] = -vecmath.L1Distance(q, d.ent.M.Row(int(id)))
		}
		return
	}
	vecmath.QueryDots(out, q, d.ent.M, ids)
	if bias != nil {
		for i, id := range ids {
			out[i] += bias[id]
		}
	}
}

// backpropRows applies the candidate-row half of a group's gradient — for
// every candidate with nonzero upstream, ∂L/∂e_{ids[i]} += uᵢ·q (and
// ∂L/∂bias += uᵢ when withBias) — accumulates dq = Σ uᵢ·e_{ids[i]}, and
// reports whether any candidate contributed.
func (d *Derived) backpropRows(ids []kg.EntityID, upstream, q, dq []float32, withBias bool, gb *GradBuffer) bool {
	any := false
	for i, u := range upstream {
		if u == 0 {
			continue
		}
		any = true
		id := int(ids[i])
		if d.geom != SweepDot {
			d.distanceGrad(u, q, d.ent.M.Row(id), gb.Row(d.ent, id), dq)
			continue
		}
		vecmath.Axpy(u, d.ent.M.Row(id), dq)
		gb.Axpy(d.ent, id, u, q)
		if withBias {
			gb.Row(d.bias, id)[0] += u
		}
	}
	return any
}
