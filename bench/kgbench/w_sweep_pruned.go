package main

import (
	"fmt"
	"path/filepath"

	"repro/bench/ledger"
	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
)

// sweepPruned runs the same eval/core layers as sweep_dense through the
// other ranking path: the IVF/int8 prescreen of internal/prune, exact and
// approximate, on embeddings trained on the full split (pruning bounds only
// bite on trained geometry). A vecmath.MatMat gain should show on
// sweep_dense and not here; a prune gain the reverse.
type sweepPruned struct {
	e   *env
	sha string
	ds  *kg.Dataset
	sr  *sweepRunner

	precision, denseMS []float64
}

var prunedModels = []string{"distmult", "complex"}

func (w *sweepPruned) fixtureSHA() string   { return w.sha }
func (w *sweepPruned) primaryClass() string { return "sweep" }
func (w *sweepPruned) concurrent() bool     { return false }
func (w *sweepPruned) teardown()            {}

func (w *sweepPruned) setup(st stageTimes) error {
	e := w.e
	var err error
	if w.ds, w.sha, err = makeFixture(e, st); err != nil {
		return err
	}
	w.sr = newSweepRunner(e, w.ds.Train)
	for _, name := range prunedModels {
		if err := st.timed("train."+name, func() error {
			m, err := trainedModel(e, name, w.ds, e.pre.prunedEpochs)
			w.sr.models[name] = m
			return err
		}); err != nil {
			return err
		}
		w.sr.prints[name] = kge.Fingerprint(w.sr.models[name])
		if err := st.timed("prune.build", func() error {
			ix, err := prune.Build(w.sr.models[name].(kge.ObjectSweeper), w.sr.prints[name], prune.Params{})
			w.sr.indexes[name] = ix
			return err
		}); err != nil {
			return fmt.Errorf("building prune index for %s: %w", name, err)
		}
	}
	return nil
}

// specs is the pass's schedule (or, with mode "", its dense references):
// model × mode × strategy × top_n, each on a quarter of the relations.
func (w *sweepPruned) specs(modes []string) []sweepSpec {
	rels := w.ds.Train.RelationIDs()
	var out []sweepSpec
	for _, model := range prunedModels {
		for _, mode := range modes {
			v := 0
			for _, strategy := range []string{"entity_frequency", "uniform_random"} {
				for _, topN := range []int{w.e.pre.topN / 5, w.e.pre.topN} {
					// op_p50_ms is the median exact sweep: exact and approx
					// sweeps differ tenfold, and a median over both would sit
					// in the gap between the two clusters.
					name, class := mode, "sweep"
					switch mode {
					case "":
						name = "dense"
					case core.PruneApprox:
						class = "sweep.approx"
					}
					out = append(out, sweepSpec{
						label: fmt.Sprintf("P/%s/%s/%s/%d", model, name, strategy, topN), class: class,
						model: model, strategy: strategy, topN: topN, pruneMode: mode,
						relations: relationSlice(rels, v%4, 4), seed: w.e.seed,
					})
					v++
				}
			}
		}
	}
	return out
}

func (w *sweepPruned) pass(i int, rec *recorder, ck *checker) float64 {
	for _, s := range w.specs([]string{core.PruneExact, core.PruneApprox}) {
		w.sr.run(rec, ck, i, s, nil)
	}
	return w.sr.endPass(ck, i)
}

// verify runs the dense reference of every (model, strategy, top_n) and
// checks that exact mode reproduces it byte for byte; approximate mode's
// precision against it is measured, not checked.
func (w *sweepPruned) verify(ck *checker) {
	w.sr.recheckRanks(ck)
	kept := map[string][]core.Fact{}
	for _, k := range w.sr.kept {
		kept[k.spec.label] = k.facts
	}
	reps := 1
	if w.e.trace {
		reps = 3 // the exact-versus-dense ratio wants a median
	}
	ref := newSweepRunner(w.e, w.ds.Train)
	ref.models = w.sr.models
	rec := newRecorder()
	rec.beginPass(false, false)
	for _, s := range w.specs([]string{""}) {
		var facts []core.Fact
		for r := 0; r < reps; r++ {
			res := ref.run(rec, ck, r, s, nil)
			if res == nil {
				return
			}
			facts = res.Facts
		}
		w.denseMS = append(w.denseMS, ledger.Median(ref.wallMS[s.label]))
		exactLabel := fmt.Sprintf("P/%s/%s/%s/%d", s.model, core.PruneExact, s.strategy, s.topN)
		approxLabel := fmt.Sprintf("P/%s/%s/%s/%d", s.model, core.PruneApprox, s.strategy, s.topN)
		ck.check(digestFacts(kept[exactLabel]) == digestFacts(facts), "sweep %s differs from its dense reference", exactLabel)
		dense := map[kg.Triple]bool{}
		for _, f := range facts {
			dense[f.Triple] = true
		}
		if approx := kept[approxLabel]; len(approx) > 0 {
			hit := 0
			for _, f := range approx {
				if dense[f.Triple] {
					hit++
				}
			}
			w.precision = append(w.precision, float64(hit)/float64(len(approx)))
		}
	}
	rec.endPass(0)
}

func (w *sweepPruned) digests() map[string]string {
	d := map[string]string{"sweeps": w.sr.digest()}
	for _, name := range prunedModels {
		d["fingerprint."+name] = w.sr.prints[name]
	}
	return d
}

func (w *sweepPruned) finish(out *metricSet, samples map[string]int, rec *recorder) {
	w.sr.finish(out, samples, rec)
	c := w.sr.pass0Counts
	if c.prunedQueries > 0 {
		cells := w.sr.indexes[prunedModels[0]].Cells()
		out.set("prune.cells_pruned_share", float64(c.cellsPruned)/float64(c.prunedQueries*cells))
		out.set("prune.prescreen_rows_per_query", float64(c.prescreenRows)/float64(c.prunedQueries))
	}
	if len(w.precision) > 0 {
		var sum float64
		for _, p := range w.precision {
			sum += p
		}
		out.set("prune.approx_precision", sum/float64(len(w.precision)))
	}
	var exact, dense float64
	for i, s := range w.specs([]string{core.PruneExact}) {
		if i < len(w.denseMS) {
			exact += ledger.Median(w.sr.wallMS[s.label])
			dense += w.denseMS[i]
		}
	}
	if dense > 0 {
		out.set("prune.exact_vs_dense_ratio", exact/dense)
	}
}

func (w *sweepPruned) probes(out *metricSet) error {
	e := w.e
	name := prunedModels[0]
	ix := w.sr.indexes[name]
	b := newProbeBlock(e, w.ds.Train)
	probeEvalPruned(e, w.sr.models[name], ix, e.pre.topN, b, out)
	path := filepath.Join(e.dir, "probe.ivf")
	if err := ix.SaveFile(path); err != nil {
		return fmt.Errorf("prune load probe: %w", err)
	}
	var err error
	load := timeIt(e.pre.probeReps, func() {
		if _, lerr := prune.LoadFile(path); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		return fmt.Errorf("prune load probe: %w", err)
	}
	out.set("prune.load_ms", millis(load))
	return nil
}
