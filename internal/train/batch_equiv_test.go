package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// One optimizer step of the production batch routines against a scalar
// reference computed from the per-triple model contract alone
// (ScoreWithContext / AccumulateGrad, exact vecmath.Sigmoid, the same
// per-chunk streams, a hand-written SGD update). This pins what the kernels'
// own tests cannot: the slot bookkeeping between draw order and group
// position, the invBatch / invN scaling, and the fused loss kernel. The
// batched kernels reassociate float32 sums and use the Fast* transcendentals,
// so the two updates agree within a tolerance relative to the largest
// update of each table, not bit for bit. SGD + Logistic keeps the comparison
// well-conditioned — Adam's per-element rescaling amplifies ulp-level kernel
// differences, and margin losses flip hinge activations on score ties,
// neither of which is a kernel bug.

const (
	equivTol = 2e-3
	stepLR   = 0.05
)

// checkStep takes, for every model, production's optimizer step on one copy
// and a plain SGD step along reference's gradient on another, and requires
// both to have moved every parameter table the same way from the shared
// initialization.
func checkStep(t *testing.T, ds *kg.Dataset, production func(kge.Model), reference func(kge.Model, *kge.GradBuffer)) {
	for _, name := range kge.ModelNames() {
		t.Run(name, func(t *testing.T) {
			initial, prod, ref := determinismModel(t, name, ds), determinismModel(t, name, ds), determinismModel(t, name, ds)
			production(prod)

			gb := kge.NewGradBuffer(ref.Params())
			reference(ref, gb)
			for _, p := range ref.Params().List() {
				for _, row := range gb.Rows(p) {
					vecmath.Axpy(-stepLR, gb.Grad(p, int(row)), p.M.Row(int(row)))
				}
			}
			ref.PostBatch(nil)

			for pi, p := range ref.Params().List() {
				was, got := initial.Params().List()[pi].M.Data, prod.Params().List()[pi].M.Data
				var scale float64
				for i, w := range p.M.Data {
					scale = math.Max(scale, math.Abs(float64(w-was[i])))
				}
				if scale == 0 {
					t.Errorf("%s: the reference step left the table unchanged", p.Name)
				}
				for i, w := range p.M.Data {
					if d := math.Abs(float64(got[i] - w)); d > equivTol*scale {
						t.Fatalf("%s[%d]: batched update %g vs scalar reference %g (largest %g)",
							p.Name, i, got[i]-was[i], w-was[i], scale)
					}
				}
			}
		})
	}
}

// TestRunBatchedMatchesScalar: runBatch against per-triple negative sampling
// over three chunks (16 + 16 + 8) with corruptions on both sides.
func TestRunBatchedMatchesScalar(t *testing.T) {
	ds := tinyDataset(t)
	batch := ds.Train.Triples()[:40]
	const negs, seed = 3, 99
	sampler := &NegativeSampler{NumEntities: ds.Train.Entities.Len()}
	checkStep(t, ds, func(prod kge.Model) {
		runBatch(newStepper(prod, Config{
			NegSamples: negs, Loss: Logistic{}, Optimizer: NewSGD(stepLR), Workers: 2,
		}), batch, sampler, seed)
	}, func(ref kge.Model, gb *kge.GradBuffer) {
		invBatch := 1 / float32(len(batch))
		var src splitmix64
		rng := rand.New(&src)
		for lo := 0; lo < len(batch); lo += gradChunkSize {
			src.seedChunk(seed, lo/gradChunkSize)
			for _, pos := range batch[lo:min(lo+gradChunkSize, len(batch))] {
				score, ctx := ref.ScoreWithContext(pos, nil)
				ref.AccumulateGrad(pos, ctx, -vecmath.Sigmoid(-score)*invBatch, gb)
				for _, neg := range sampler.CorruptN(nil, pos, negs, rng) {
					score, ctx := ref.ScoreWithContext(neg, nil)
					ref.AccumulateGrad(neg, ctx, vecmath.Sigmoid(score)*invBatch, gb)
				}
			}
		}
	})
}

// TestRunKvsAllBatchedMatchesScalar: runKvsBatch against per-triple binary
// cross-entropy over every (context, entity) pair of two chunks (16 + 4).
func TestRunKvsAllBatchedMatchesScalar(t *testing.T) {
	ds := tinyDataset(t)
	batch := buildKvsContexts(ds.Train)[:20]
	n := ds.Train.Entities.Len()
	const smoothing = 0.1
	checkStep(t, ds, func(prod kge.Model) {
		runKvsBatch(newStepper(prod, Config{Optimizer: NewSGD(stepLR), Workers: 2}), batch, n, smoothing)
	}, func(ref kge.Model, gb *kge.GradBuffer) {
		for _, c := range batch {
			label := make([]float32, n)
			for o := range label {
				label[o] = smoothing / float32(n)
			}
			for _, o := range c.objects {
				label[o] = 1 - smoothing + smoothing/float32(n)
			}
			for o, y := range label {
				tr := kg.Triple{S: c.s, R: c.r, O: kg.EntityID(o)}
				score, ctx := ref.ScoreWithContext(tr, nil)
				ref.AccumulateGrad(tr, ctx, (vecmath.Sigmoid(score)-y)/float32(len(batch)*n), gb)
			}
		}
	})
}
