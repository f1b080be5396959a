package kge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// chunkContexts builds a small varied context chunk: repeated subjects and
// relations, plus a subject that also appears as a scored object, to
// exercise the phase-split accumulation.
func chunkContexts() ([]kg.EntityID, []kg.RelationID) {
	ss := []kg.EntityID{1, 3, 1, 7, 0}
	rs := []kg.RelationID{2, 0, 1, 2, 2}
	return ss, rs
}

func chunkUpstream(rng *rand.Rand, k, n int) *vecmath.Matrix {
	u := vecmath.NewMatrix(k, n)
	for i := range u.Data {
		u.Data[i] = float32(rng.NormFloat64())
	}
	// Sprinkle zeros to exercise the untouched-row skip path.
	for j := 0; j < k; j++ {
		row := u.Row(j)
		row[0], row[4+j] = 0, 0
	}
	return u
}

// TestScoreContextsBatchMatchesScoreAllObjects pins the forward half of the
// batched-digest contract: every row of the chunk forward is bit-identical
// to the per-context ScoreAllObjects sweep, for every model.
func TestScoreContextsBatchMatchesScoreAllObjects(t *testing.T) {
	for _, m := range derivedModels(t) {
		bt := m.(*Derived)
		t.Run(m.Name(), func(t *testing.T) {
			ss, rs := chunkContexts()
			out := vecmath.NewMatrix(len(ss), m.NumEntities())
			bt.ScoreContextsBatch(ss, rs, out)
			want := make([]float32, m.NumEntities())
			for j := range ss {
				m.ScoreAllObjects(ss[j], rs[j], want)
				row := out.Row(j)
				for o := range want {
					if math.Float32bits(row[o]) != math.Float32bits(want[o]) {
						t.Fatalf("context %d entity %d: batch %v, scalar %v (not bit-identical)",
							j, o, row[o], want[o])
					}
				}
			}
		})
	}
}

// TestKvsAllBatchGradMatchesScalarSequence checks the backward half: the
// chunk-batched gradient equals the sum of the one-context backward passes
// in ascending context order — the same row set exactly (optimizer
// sparse-row semantics), values to float32 reassociation tolerance (the
// phase split reorders additions into rows that are both objects and
// chain-tail targets).
func TestKvsAllBatchGradMatchesScalarSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range derivedModels(t) {
		bt := m.(*Derived)
		t.Run(m.Name(), func(t *testing.T) {
			ss, rs := chunkContexts()
			upstream := chunkUpstream(rng, len(ss), m.NumEntities())

			batched := NewGradBuffer(m.Params())
			bt.AccumulateGradAllObjectsBatch(ss, rs, upstream, batched)

			reference := oneContextSum(bt, ss, rs, upstream)

			if gradLen(batched) != gradLen(reference) {
				t.Errorf("%s: batched touches %d rows, scalar %d", m.Name(), gradLen(batched), gradLen(reference))
			}
			forEachGrad(reference, func(p *Param, row int, _ []float32) {
				if batched.Grad(p, row) == nil {
					t.Errorf("%s: row %s/%d touched by scalar but not batched", m.Name(), p.Name, row)
				}
			})
			compareGradBuffers(t, m, batched, reference)
		})
	}
}

// oneContextSum is the sum of the one-context backward passes of a chunk:
// each in a buffer of its own, as a KvsAll chunk needs one without entity
// rows, merged in context order.
func oneContextSum(d *Derived, ss []kg.EntityID, rs []kg.RelationID, upstream *vecmath.Matrix) *GradBuffer {
	bufs := make([]*GradBuffer, len(ss))
	for j := range ss {
		bufs[j] = NewGradBuffer(d.Params())
		oneContextGrad(d, ss[j], rs[j], upstream.Row(j), bufs[j])
	}
	sum, mergers := NewGradBuffer(d.Params()), bufs[0].Merge(bufs[1:])
	var scr GroupScratch
	for i, p := range d.Params().List() {
		for _, row := range bufs[0].Rows(p) {
			copy(sum.Row(p, int(row)), mergers[i].Row(int(row), &scr))
		}
	}
	return sum
}
