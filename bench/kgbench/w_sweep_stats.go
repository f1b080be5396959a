package main

import (
	"fmt"
	"math/rand"

	"repro/internal/graphstats"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/sample"
)

// sweepStats is the statistics-bound workload: the graph-statistic
// strategies in Algorithm-1-faithful mode, where the statistic is recomputed
// for every relation (line 7 sits inside the relation loop). graphstats,
// core's strategy weighting and sample do the work and ranking little: this
// is the paper's Figure 2 spread between strategies, and a ranking
// optimisation must not move it.
type sweepStats struct {
	e   *env
	sha string
	ds  *kg.Dataset
	sr  *sweepRunner
}

func (w *sweepStats) fixtureSHA() string   { return w.sha }
func (w *sweepStats) primaryClass() string { return "sweep" }
func (w *sweepStats) concurrent() bool     { return false }
func (w *sweepStats) teardown()            {}

func (w *sweepStats) setup(st stageTimes) error {
	e := w.e
	var err error
	if w.ds, w.sha, err = makeFixture(e, st); err != nil {
		return err
	}
	w.sr = newSweepRunner(e, w.ds.Train)
	return st.timed("train.distmult", func() error {
		m, err := trainedModel(e, "distmult", subsample(w.ds, e.pre.subsampleTriples), 1)
		w.sr.models["distmult"] = m
		if err == nil {
			w.sr.prints["distmult"] = kge.Fingerprint(m)
		}
		return err
	})
}

func (w *sweepStats) pass(i int, rec *recorder, ck *checker) float64 {
	rels := w.ds.Train.RelationIDs()
	for _, strategy := range []string{"cluster_triangles", "cluster_coefficient", "graph_degree"} {
		for k := 0; k < 2; k++ {
			w.sr.run(rec, ck, i, sweepSpec{
				label: fmt.Sprintf("S/%s/%d", strategy, k), class: "sweep",
				model: "distmult", strategy: strategy,
				relations: relationSlice(rels, k, 4), seed: w.e.seed + int64(k),
			}, nil)
		}
	}
	// The weight-caching ablation: one statistic computation for the sweep.
	w.sr.run(rec, ck, i, sweepSpec{
		label: "S/cluster_triangles/cached", class: "sweep",
		model: "distmult", strategy: "cluster_triangles", cacheWeights: true,
		relations: relationSlice(rels, 2, 4), seed: w.e.seed,
	}, nil)
	return w.sr.endPass(ck, i)
}

func (w *sweepStats) verify(ck *checker) { w.sr.recheckRanks(ck) }

func (w *sweepStats) digests() map[string]string {
	return map[string]string{"sweeps": w.sr.digest(), "fingerprint.distmult": w.sr.prints["distmult"]}
}

func (w *sweepStats) finish(out *metricSet, samples map[string]int, rec *recorder) {
	w.sr.finish(out, samples, rec)
}

func (w *sweepStats) probes(out *metricSet) error {
	e := w.e
	var u *graphstats.Undirected
	out.set("graphstats.build_undirected_ms", millis(timeIt(e.pre.probeReps, func() { u = graphstats.BuildUndirected(w.ds.Train) })))
	var tri []int64
	out.set("graphstats.triangles_ms", millis(timeIt(e.pre.probeReps, func() { tri = u.Triangles() })))
	out.set("graphstats.local_clustering_ms", millis(timeIt(e.pre.probeReps, func() { u.LocalClustering(tri) })))

	// One alias table over a weight per entity, the largest pool a strategy
	// can hand the sampler; weights are the triangle counts themselves.
	weights := make([]float64, len(tri))
	for i, t := range tri {
		weights[i] = float64(t) + 1
	}
	var alias *sample.Alias
	var err error
	build := timeIt(e.pre.probeReps, func() { alias, err = sample.NewAlias(weights) })
	if err != nil {
		return fmt.Errorf("alias probe: %w", err)
	}
	out.set("sample.alias_build_us", micros(build))
	const draws = 1 << 16
	rng := rand.New(rand.NewSource(e.seed))
	per := timeIt(e.pre.probeReps, func() {
		for i := 0; i < draws; i++ {
			alias.Draw(rng)
		}
	})
	out.set("sample.draw_ns", float64(per.Nanoseconds())/draws)
	return nil
}
