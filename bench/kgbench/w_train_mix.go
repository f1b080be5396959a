package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/bench/ledger"
	"repro/internal/eval"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/train"
	"repro/internal/vecmath"
)

// trainMix is the training-bound workload: the chunk scheduler, the kge
// gradient kernels and vecmath's MatMat/BCE under both objectives (Kotnis et
// al.: the objective changes the cost profile), then the filtered both-sides
// evaluation that dominates kgtrain's wall time. Discovery is absent.
type trainMix struct {
	e   *env
	sha string
	ds  *kg.Dataset
	all *kg.Graph

	negsample, conve, kvsall *kg.Dataset

	// examples per slot (schedule order), fixed by pass 0.
	examples []int
	prints   map[string]string
	evalMRR  float64
}

func (w *trainMix) fixtureSHA() string   { return w.sha }
func (w *trainMix) primaryClass() string { return "epoch.negsample" }
func (w *trainMix) concurrent() bool     { return false }
func (w *trainMix) teardown()            {}

func (w *trainMix) setup(st stageTimes) error {
	e := w.e
	var err error
	if w.ds, w.sha, err = makeFixture(e, st); err != nil {
		return err
	}
	w.all = w.ds.All()
	w.negsample = subsample(w.ds, e.pre.negsampleTriples)
	w.conve = subsample(w.ds, e.pre.conveTriples)
	// KvsAll scores every context against the whole entity table, so a small
	// subgraph that keeps the full table is already |E|·d work per context.
	w.kvsall = subsample(w.ds, e.pre.kvsallTriples)
	w.prints = map[string]string{}
	return nil
}

// epoch trains a fresh model for one epoch as one slot and checks that its
// checkpoint digest repeats across passes (training is bit-deterministic for
// any worker count, DESIGN §6).
func (w *trainMix) epoch(rec *recorder, ck *checker, slot int, label, class, model string, ds *kg.Dataset, kvs bool) (kge.Trainable, int) {
	ck.ops(1)
	m, err := newModel(w.e, model, w.ds)
	if err != nil {
		ck.fail("%s: %v", label, err)
		return nil, 0
	}
	var h train.History
	call := "train.run:"
	if kvs {
		call = "train.run_kvsall:"
	}
	rec.op(class, call+label, func(int) {
		if kvs {
			h, err = train.RunKvsAll(w.e.ctx, m, ds, trainConfig(w.e), 0.1)
		} else {
			h, err = train.Run(w.e.ctx, m, ds, trainConfig(w.e))
		}
	})
	if err != nil || len(h.Epochs) != 1 {
		ck.fail("%s: %d epochs, err %v", label, len(h.Epochs), err)
		return nil, 0
	}
	ep := h.Epochs[0]
	ck.check(!math.IsNaN(ep.Loss) && !math.IsInf(ep.Loss, 0), "%s: loss %v", label, ep.Loss)
	fp := kge.Fingerprint(m)
	if want, seen := w.prints[label]; seen {
		ck.check(fp == want, "%s: checkpoint digest %s differs from pass 0's %s", label, fp[:12], want[:12])
	} else {
		w.prints[label] = fp
	}
	if slot == len(w.examples) {
		w.examples = append(w.examples, ep.Examples)
	}
	return m, ep.Examples
}

func (w *trainMix) pass(i int, rec *recorder, ck *checker) float64 {
	work, slot := 0, 0
	var distmult kge.Trainable
	// N: negative sampling.
	for _, model := range negsampleModels {
		ds := w.negsample
		if model == "conve" {
			ds = w.conve
		}
		m, n := w.epoch(rec, ck, slot, "N/"+model, "epoch.negsample", model, ds, false)
		if model == "distmult" {
			distmult = m
		}
		work += n
		slot++
	}
	// K: KvsAll with the ConvE paper's label smoothing.
	for _, model := range kvsallModels {
		_, n := w.epoch(rec, ck, slot, "K/"+model, "epoch.kvsall", model, w.kvsall, true)
		work += n
		slot++
	}
	// E: filtered evaluation, both sides, with N's distmult.
	ck.ops(1)
	if distmult == nil {
		ck.fail("E/evaluate: no trained distmult")
		return float64(work)
	}
	var res eval.Result
	rec.op("evaluate", "eval.evaluate:E/evaluate", func(int) {
		res = eval.Evaluate(eval.NewRanker(distmult, w.all), w.ds.Test, eval.Options{BothSides: true, MaxTriples: w.e.pre.evalTriples, Workers: w.e.p})
	})
	if i == 0 {
		w.evalMRR = res.MRR
	}
	ck.check(res.N > 0 && res.MRR == w.evalMRR, "E/evaluate: MRR %v over %d ranks, pass 0 had %v", res.MRR, res.N, w.evalMRR)
	return float64(work)
}

func (w *trainMix) verify(ck *checker) {}

func (w *trainMix) digests() map[string]string {
	d := map[string]string{"evaluate.mrr": fmt.Sprintf("%.17g", w.evalMRR)}
	for label, fp := range w.prints {
		d["train.fingerprint."+label] = fp
	}
	return d
}

func (w *trainMix) finish(out *metricSet, samples map[string]int, rec *recorder) {
	med := rec.slotBest(nil, false)
	nN, nK := len(negsampleModels), len(kvsallModels)
	if len(med) != nN+nK+1 || len(w.examples) != nN+nK {
		return
	}
	var triples, contexts, wallN, wallK float64
	for k, model := range negsampleModels {
		out.set("train.negsample_triples_per_s."+model, float64(w.examples[k])/med[k])
		triples += float64(w.examples[k])
		wallN += med[k]
	}
	for k, model := range kvsallModels {
		out.set("train.kvsall_contexts_per_s."+model, float64(w.examples[nN+k])/med[nN+k])
		contexts += float64(w.examples[nN+k])
		wallK += med[nN+k]
	}
	out.set("train_triples_per_s", triples/wallN)
	out.set("train_contexts_per_s", contexts/wallK)
	epochs := rec.samples("epoch.negsample", nil)
	out.set("train.epoch_p50_s", ledger.Median(epochs)/1000)
	samples["train.epoch_p50_s"] = len(epochs)
	evaluated := w.e.pre.evalTriples
	if n := w.ds.Test.Len(); n < evaluated {
		evaluated = n
	}
	out.set("eval.evaluate_triples_per_s", float64(evaluated)/med[nN+nK])
	samples["eval.evaluate_triples_per_s"] = len(rec.passes)
}

// probes times the fused BCE kernel of KvsAll training over one context's
// score row (one element per entity).
func (w *trainMix) probes(out *metricSet) error {
	n := w.ds.Train.NumEntities()
	rng := rand.New(rand.NewSource(w.e.seed))
	scores := make([]float32, n)
	vecmath.NormalInit(rng, scores, 0, 2)
	upstream := make([]float32, n)
	seen := map[int32]bool{}
	var positives []int32
	for len(positives) < 8 && len(positives) < n {
		o := int32(rng.Intn(n))
		if !seen[o] {
			seen[o] = true
			positives = append(positives, o)
		}
	}
	sort.Slice(positives, func(i, j int) bool { return positives[i] < positives[j] })
	per := timeIt(w.e.pre.probeReps*4, func() { vecmath.BCEFusedGrad(upstream, scores, positives, 0.9, 0.1/float32(n), 1) })
	out.set("vecmath.bce_fused_ns_per_elem", float64(per.Nanoseconds())/float64(n))
	return nil
}
