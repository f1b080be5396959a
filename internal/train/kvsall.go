package train

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/vecmath"
)

// KvsAll ("1-N") training, LibKGE's KvsAll train type and the procedure of
// the original ConvE paper: instead of contrasting each positive against k
// sampled corruptions, every distinct (s, r) context in the training graph
// is scored against all entities at once and optimized with binary
// cross-entropy against the multi-hot vector of its true objects. One
// forward/backward pass per context covers N implicit negatives, which is
// what makes ConvE trainable in practice.

// kvsContext is one training example: a context and its true objects.
type kvsContext struct {
	s       kg.EntityID
	r       kg.RelationID
	objects []int32 // entity IDs, ascending: the multi-hot target BCEFusedGrad reads
}

// buildKvsContexts reads the training contexts off the graph's index, one
// per (s, r) row. The result is sorted by (s, r) — and each context's object
// list by object ID — so batch composition depends only on Config.Seed.
func buildKvsContexts(g *kg.Graph) []kvsContext {
	var out []kvsContext
	for _, r := range g.RelationIDs() {
		subs, rows, objs := g.Pairs(r)
		for i, s := range subs {
			c := kvsContext{s: s, r: r, objects: make([]int32, rows[i+1]-rows[i])}
			for k, o := range objs[rows[i]:rows[i+1]] {
				c.objects[k] = int32(o)
			}
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b kvsContext) int { return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.r, b.r)) })
	return out
}

// RunKvsAll trains model with the KvsAll objective. cfg fields NegSamples
// and Loss are ignored — the objective replaces negative sampling entirely. LabelSmoothing (e.g. 0.1, the ConvE paper's value)
// smooths the multi-hot targets.
func RunKvsAll(ctx context.Context, model kge.Model, ds *kg.Dataset, cfg Config, labelSmoothing float32) (History, error) {
	st, err := prepare(model, ds, &cfg)
	if err != nil {
		return History{}, err
	}
	if labelSmoothing < 0 || labelSmoothing >= 1 {
		return History{}, fmt.Errorf("train: label smoothing %g outside [0, 1)", labelSmoothing)
	}

	contexts := buildKvsContexts(ds.Train)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := model.NumEntities()

	return runEpochs(ctx, model, cfg, rng, len(contexts), "contexts",
		func(i, j int) { contexts[i], contexts[j] = contexts[j], contexts[i] },
		func(lo, hi int) float64 {
			return runKvsBatch(st, contexts[lo:hi], n, labelSmoothing)
		})
}

// runKvsBatch takes one KvsAll optimizer step over a batch of contexts
// (chunked across workers, same deterministic reduction as runBatch) and
// returns the summed mean-per-entity BCE loss. A whole chunk is scored as one
// query-matrix × entity-table MatMat into its slot's matrix, the fused BCE
// loss/gradient kernel turns each row's scores into upstream in place, and
// the chunk is backpropagated with one AccumulateGradAllObjectsBatch call,
// whose buffer keeps the matrix until the step's merge.
func runKvsBatch(st *stepper, batch []kvsContext, n int, smoothing float32) float64 {
	invBatch := 1 / float32(len(batch))
	invN := 1 / float32(n)
	// Multi-hot targets with label smoothing.
	posLabel := (1-smoothing)*1 + smoothing*invN
	negLabel := smoothing * invN
	// The product of the two rounded reciprocals, not invN/len(batch): the
	// rounding is part of the pinned checkpoint digests.
	gradScale := invBatch * invN

	for len(st.upstream) < (len(batch)+gradChunkSize-1)/gradChunkSize {
		st.upstream = append(st.upstream, vecmath.NewMatrix(gradChunkSize, n))
	}
	return st.step("kvsall", len(batch), func(int) func(chunk, lo, hi int, gb *kge.GradBuffer) float64 {
		ss := make([]kg.EntityID, gradChunkSize)
		rs := make([]kg.RelationID, gradChunkSize)
		return func(chunk, lo, hi int, gb *kge.GradBuffer) float64 {
			k := hi - lo
			for j, c := range batch[lo:hi] {
				ss[j], rs[j] = c.s, c.r
			}
			up := &vecmath.Matrix{Rows: k, Cols: n, Data: st.upstream[chunk].Data[:k*n]}
			st.model.ScoreContextsBatch(ss[:k], rs[:k], up)
			var loss float64
			for j, c := range batch[lo:hi] {
				ctxLoss := vecmath.BCEFusedGrad(up.Row(j), up.Row(j),
					c.objects, posLabel, negLabel, gradScale)
				loss += ctxLoss * float64(invN)
			}
			st.model.AccumulateGradAllObjectsBatch(ss[:k], rs[:k], up, gb)
			return loss
		}
	})
}
