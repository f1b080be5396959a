package train

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

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
	objects []kg.EntityID
}

// buildKvsContexts groups the training triples by (s, r). The result is
// sorted by (s, r) — and each context's object list by object ID — so batch
// composition depends only on Config.Seed, never on the grouping map's
// iteration order.
func buildKvsContexts(g *kg.Graph) []kvsContext {
	type key struct {
		s kg.EntityID
		r kg.RelationID
	}
	grouped := make(map[key][]kg.EntityID)
	for _, t := range g.Triples() {
		k := key{t.S, t.R}
		grouped[k] = append(grouped[k], t.O)
	}
	out := make([]kvsContext, 0, len(grouped))
	for k, objs := range grouped {
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		out = append(out, kvsContext{s: k.s, r: k.r, objects: objs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].s != out[j].s {
			return out[i].s < out[j].s
		}
		return out[i].r < out[j].r
	})
	return out
}

// RunKvsAll trains model with the KvsAll objective. The model must be a
// *kge.Derived (everything kge.New returns is). cfg fields NegSamples, Loss,
// FilteredNegatives and BernoulliNegatives are ignored — the objective
// replaces negative sampling entirely. LabelSmoothing (e.g. 0.1, the ConvE
// paper's value) smooths the multi-hot targets.
func RunKvsAll(ctx context.Context, model kge.Trainable, ds *kg.Dataset, cfg Config, labelSmoothing float32) (History, error) {
	kvs, ok := model.(*kge.Derived)
	if !ok {
		return History{}, fmt.Errorf("train: model %s does not support KvsAll training", model.Name())
	}
	cfg.setDefaults(model)
	if ds.Train.Len() == 0 {
		return History{}, fmt.Errorf("train: empty training graph")
	}
	if labelSmoothing < 0 || labelSmoothing >= 1 {
		return History{}, fmt.Errorf("train: label smoothing %g outside [0, 1)", labelSmoothing)
	}

	contexts := buildKvsContexts(ds.Train)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := model.NumEntities()

	var hist History
	var best float64
	var bestParams map[string][]float32
	sinceBest := 0

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return hist, err
		}
		start := time.Now()
		rng.Shuffle(len(contexts), func(i, j int) { contexts[i], contexts[j] = contexts[j], contexts[i] })

		var epochLoss float64
		for lo := 0; lo < len(contexts); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(contexts) {
				hi = len(contexts)
			}
			epochLoss += runKvsBatch(kvs, contexts[lo:hi], n, cfg, labelSmoothing)
		}
		epochLoss /= float64(len(contexts))

		stats := EpochStats{
			Epoch: epoch, Loss: epochLoss, Duration: time.Since(start),
			Examples: len(contexts),
		}
		if cfg.Validate != nil && epoch%cfg.EvalEvery == 0 {
			metric := cfg.Validate(model)
			stats.Validation = metric
			if metric > best {
				best = metric
				sinceBest = 0
				bestParams = snapshotParams(model, bestParams)
			} else {
				sinceBest++
			}
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				hist.Epochs = append(hist.Epochs, stats)
				hist.Stopped = true
				break
			}
		}
		hist.Epochs = append(hist.Epochs, stats)
		if cfg.Progress != nil {
			cfg.Progress("epoch %3d  loss %.5f  valid %.4f  (%s, %.0f contexts/s)",
				epoch, stats.Loss, stats.Validation,
				stats.Duration.Round(time.Millisecond), stats.Throughput())
		}
	}
	hist.Best = best
	if bestParams != nil {
		restoreParams(model, bestParams)
	}
	return hist, nil
}

// runKvsBatch processes one batch of contexts (chunked across workers, same
// deterministic reduction as runBatch) and applies a single optimizer step.
// Returns the summed mean-per-entity BCE loss over the batch.
//
// The batched path (ScalarKernels false) scores a whole chunk as one
// query-matrix × entity-table MatMat, runs the fused BCE loss/gradient kernel
// per context row, and backprops the chunk with one
// AccumulateGradAllObjectsBatch call.
func runKvsBatch(model *kge.Derived, batch []kvsContext, n int, cfg Config, smoothing float32) float64 {
	invBatch := 1 / float32(len(batch))
	invN := 1 / float32(n)
	// Multi-hot targets with label smoothing.
	posLabel := (1-smoothing)*1 + smoothing*invN
	negLabel := smoothing * invN

	newWorker := func() func(chunk, lo, hi int) chunkResult {
		scores := make([]float32, n)
		upstream := make([]float32, n)
		return func(chunk, lo, hi int) chunkResult {
			gb := kge.NewGradBuffer(model.Params())
			var loss float64
			for _, c := range batch[lo:hi] {
				model.ScoreAllObjects(c.s, c.r, scores)
				var ctxLoss float64
				pi := 0
				for o := 0; o < n; o++ {
					y := negLabel
					// Two-pointer merge over the sorted object list replaces
					// the per-context positives map; the float ops and their
					// order are unchanged, so scalar digests are preserved.
					if pi < len(c.objects) && c.objects[pi] == kg.EntityID(o) {
						y = posLabel
						for pi < len(c.objects) && c.objects[pi] == kg.EntityID(o) {
							pi++
						}
					}
					p := vecmath.Sigmoid(scores[o])
					// BCE loss and its gradient w.r.t. the raw score.
					ctxLoss += bce(scores[o], y)
					upstream[o] = (p - y) * invBatch * invN
				}
				loss += ctxLoss * float64(invN)
				model.AccumulateGradAllObjects(c.s, c.r, upstream, gb)
			}
			return chunkResult{gb: gb, loss: loss}
		}
	}
	phase := "kvsall/scalar"
	if !cfg.ScalarKernels {
		phase = "kvsall/batched"
		gradScale := invBatch * invN
		newWorker = func() func(chunk, lo, hi int) chunkResult {
			scores := vecmath.NewMatrix(gradChunkSize, n)
			upstream := vecmath.NewMatrix(gradChunkSize, n)
			ss := make([]kg.EntityID, gradChunkSize)
			rs := make([]kg.RelationID, gradChunkSize)
			var positives []int32
			return func(chunk, lo, hi int) chunkResult {
				gb := kge.NewGradBuffer(model.Params())
				k := hi - lo
				for j, c := range batch[lo:hi] {
					ss[j], rs[j] = c.s, c.r
				}
				scoresK := &vecmath.Matrix{Rows: k, Cols: n, Data: scores.Data[:k*n]}
				upstreamK := &vecmath.Matrix{Rows: k, Cols: n, Data: upstream.Data[:k*n]}
				model.ScoreContextsBatch(ss[:k], rs[:k], scoresK)
				var loss float64
				for j, c := range batch[lo:hi] {
					positives = positives[:0]
					for _, o := range c.objects {
						positives = append(positives, int32(o))
					}
					ctxLoss := vecmath.BCEFusedGrad(upstreamK.Row(j), scoresK.Row(j),
						positives, posLabel, negLabel, gradScale)
					loss += ctxLoss * float64(invN)
				}
				model.AccumulateGradAllObjectsBatch(ss[:k], rs[:k], upstreamK, gb)
				return chunkResult{gb: gb, loss: loss}
			}
		}
	}
	results := runChunks(phase, len(batch), cfg.Workers, newWorker)

	merged, totalLoss := mergeChunks(results)
	if merged == nil {
		return 0
	}
	if cfg.L2 > 0 {
		merged.ForEach(func(p *kge.Param, row int, grad []float32) {
			vecmath.Axpy(cfg.L2, p.M.Row(row), grad)
		})
	}
	cfg.Optimizer.Step(merged)
	model.PostBatch()
	return totalLoss
}

// bce is the numerically stable binary cross-entropy on a raw score:
// softplus(score) − y·score.
func bce(score, y float32) float64 {
	return float64(vecmath.Softplus(score) - y*score)
}
