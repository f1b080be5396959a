package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/bench/ledger"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
)

// sweepSpec is one discovery sweep of a pass's schedule.
type sweepSpec struct {
	// label identifies the slot; sweeps with equal labels have equal inputs
	// and must have equal output digests.
	label string
	// class is the sample class its wall time is filed under.
	class        string
	model        string
	strategy     string
	filtered     bool
	relations    []kg.RelationID // nil sweeps every relation
	seed         int64
	topN         int
	cacheWeights bool
	pruneMode    string
	journal      bool
}

// sweepRunner runs sweepSpecs through jobs.Run against one graph and keeps
// what the sweep workloads share: digests per label, program-reported stage
// times, exact counts, and the pass-0 facts the re-rank check samples.
type sweepRunner struct {
	e       *env
	graph   *kg.Graph
	models  map[string]kge.Trainable
	prints  map[string]string
	indexes map[string]*prune.Index

	first     map[string]string    // label → digest of its first run
	wallMS    map[string][]float64 // label → wall time of every run
	labels    []string             // labels in first-run order
	kept      []keptSweep
	journalID int

	agg sweepAgg
	// passCounts are the exact counts of the pass in progress; pass0Counts
	// the ones every later pass must repeat.
	passCounts, pass0Counts sweepCounts
}

type keptSweep struct {
	spec  sweepSpec
	facts []core.Fact
}

// sweepCounts are counts that repeat exactly for equal inputs.
type sweepCounts struct {
	candidates, facts, scoreSweeps, batchedSweeps, batchRows int
	cellsPruned, prescreenRows, prunedQueries                int
}

// sweepAgg accumulates program-reported (core.Stats) times over every plain
// sweep of the run.
type sweepAgg struct {
	// allWall and allFacts cover every sweep run through the runner, plain
	// and journaled; the stage times below cover the plain ones only.
	allWall                      time.Duration
	allFacts                     int
	wall, weight, generate, rank time.Duration
	journalWall, journalStages   time.Duration
	relationMS, firstRelationMS  []float64
	byStrategyMS                 map[string][]float64
	cachedMS                     []float64
	reciprocalRanks              float64
}

func newSweepRunner(e *env, g *kg.Graph) *sweepRunner {
	return &sweepRunner{
		e: e, graph: g,
		models:  map[string]kge.Trainable{},
		prints:  map[string]string{},
		indexes: map[string]*prune.Index{},
		first:   map[string]string{},
		wallMS:  map[string][]float64{},
		agg:     sweepAgg{byStrategyMS: map[string][]float64{}},
	}
}

func (sr *sweepRunner) jobSpec(s sweepSpec) (jobs.Spec, error) {
	strategy, err := core.ExtendedStrategyByName(s.strategy)
	if err != nil {
		return jobs.Spec{}, err
	}
	m, ok := sr.models[s.model]
	if !ok {
		return jobs.Spec{}, fmt.Errorf("sweep %s: no model %q", s.label, s.model)
	}
	topN := s.topN
	if topN == 0 {
		topN = sr.e.pre.topN
	}
	spec := jobs.Spec{
		Model: m, Graph: sr.graph, Strategy: strategy,
		Options: core.Options{
			TopN: topN, MaxCandidates: sr.e.pre.maxCandidates,
			Relations: s.relations, RankFiltered: s.filtered, Seed: s.seed,
			Workers: sr.e.p, CacheWeights: s.cacheWeights,
		},
	}
	if s.pruneMode != "" {
		spec.Options.PruneMode = s.pruneMode
		spec.Options.PruneIndex = sr.indexes[s.model]
	}
	if s.journal {
		sr.journalID++
		spec.Fingerprint = sr.prints[s.model]
		spec.Journal = filepath.Join(sr.e.dir, fmt.Sprintf("sweep-%d.wal", sr.journalID))
	}
	return spec, nil
}

// run executes one sweep as a slot of the current pass. pass is the pass
// index (facts of pass 0 are kept for the re-rank check). onRelation, when
// non-nil, receives each relation's journal record.
func (sr *sweepRunner) run(rec *recorder, ck *checker, pass int, s sweepSpec, onRelation func(jobs.RelationRecord)) *core.Result {
	spec, err := sr.jobSpec(s)
	ck.ops(1)
	if err != nil {
		ck.fail("%v", err)
		return nil
	}
	spec.OnRelation = onRelation
	var res *core.Result
	wall := rec.op(s.class, "jobs.run:"+s.label, func(parent int) {
		t := time.Now()
		res, _, err = jobs.Run(sr.e.ctx, spec)
		if err != nil || parent < 0 {
			return
		}
		// The stage boundaries inside jobs.Run are not visible from here;
		// lay the program-reported stage durations out back to back and
		// call what is left by the layer that owns it.
		var off time.Duration
		for _, r := range res.Stats.PerRelation {
			off = rec.child(parent, "core.weight", off, r.WeightTime)
			off = rec.child(parent, "core.generate", off, r.GenerateTime)
			off = rec.child(parent, "core.rank", off, r.RankTime)
		}
		rest := "jobs.other"
		if s.journal {
			rest = "jobs.journal"
		}
		if d := time.Since(t) - off; d > 0 {
			rec.child(parent, rest, off, d)
		}
	})
	if spec.Journal != "" {
		os.Remove(spec.Journal)
	}
	if err != nil {
		ck.fail("sweep %s: %v", s.label, err)
		return nil
	}

	d := digestFacts(res.Facts)
	if want, seen := sr.first[s.label]; seen {
		ck.check(d == want, "sweep %s: digest %s differs from its first run %s", s.label, d[:12], want[:12])
	} else {
		sr.first[s.label] = d
		sr.labels = append(sr.labels, s.label)
	}
	if pass == 0 {
		sr.kept = append(sr.kept, keptSweep{spec: s, facts: res.Facts})
	}
	sr.account(s, res, wall)
	return res
}

func (sr *sweepRunner) account(s sweepSpec, res *core.Result, wall time.Duration) {
	st := res.Stats
	c := &sr.passCounts
	c.candidates += st.Generated
	c.facts += len(res.Facts)
	c.scoreSweeps += st.ScoreSweeps
	c.batchedSweeps += st.BatchedSweeps
	c.batchRows += st.BatchRows
	if s.pruneMode == core.PruneExact {
		c.cellsPruned += st.CellsPruned
		c.prescreenRows += st.PrescreenRows
		c.prunedQueries += st.ScoreSweeps
	}

	stages := st.WeightTime + st.GenerateTime + st.RankTime
	sr.wallMS[s.label] = append(sr.wallMS[s.label], millis(wall))
	a := &sr.agg
	a.allWall += wall
	a.allFacts += len(res.Facts)
	for _, f := range res.Facts {
		a.reciprocalRanks += 1 / float64(f.Rank)
	}
	if s.journal {
		a.journalWall += wall
		a.journalStages += stages
		return
	}
	a.wall += wall
	a.weight += st.WeightTime
	a.generate += st.GenerateTime
	a.rank += st.RankTime
	for i, r := range st.PerRelation {
		ms := millis(r.WeightTime + r.GenerateTime + r.RankTime)
		if i == 0 {
			a.firstRelationMS = append(a.firstRelationMS, ms)
		} else {
			a.relationMS = append(a.relationMS, ms)
		}
	}
	if s.cacheWeights {
		a.cachedMS = append(a.cachedMS, millis(wall))
	} else {
		a.byStrategyMS[s.strategy] = append(a.byStrategyMS[s.strategy], millis(wall))
	}
}

// endPass closes the pass's exact counts: pass 0 fixes them, every later
// pass must repeat them. It returns the pass's fact count (its work).
func (sr *sweepRunner) endPass(ck *checker, pass int) float64 {
	c := sr.passCounts
	sr.passCounts = sweepCounts{}
	if pass == 0 {
		sr.pass0Counts = c
	} else {
		ck.check(c == sr.pass0Counts, "pass %d counts %+v differ from pass 0 %+v", pass, c, sr.pass0Counts)
	}
	return float64(c.facts)
}

// recheckRanks re-ranks a seeded sample of pass-0 facts one candidate at a
// time with eval.Ranker.RankObject and compares with the rank the sweep
// reported. Approximate-mode sweeps are skipped: their ranks are allowed to
// differ (DESIGN §10), their precision is measured instead.
func (sr *sweepRunner) recheckRanks(ck *checker) {
	type ref struct {
		sweep int
		fact  int
	}
	var pool []ref
	for i, k := range sr.kept {
		if k.spec.pruneMode == core.PruneApprox {
			continue
		}
		for j := range k.facts {
			pool = append(pool, ref{i, j})
		}
	}
	rng := rand.New(rand.NewSource(sr.e.seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > sr.e.pre.checkFacts {
		pool = pool[:sr.e.pre.checkFacts]
	}
	type rankerKey struct {
		model    string
		filtered bool
	}
	rankers := map[rankerKey]*eval.Ranker{}
	for _, r := range pool {
		k := sr.kept[r.sweep]
		key := rankerKey{k.spec.model, k.spec.filtered}
		rk := rankers[key]
		if rk == nil {
			var filter *kg.Graph
			if k.spec.filtered {
				filter = sr.graph
			}
			rk = eval.NewRanker(sr.models[k.spec.model], filter)
			rankers[key] = rk
		}
		f := k.facts[r.fact]
		got := rk.RankObject(f.Triple)
		ck.check(got == f.Rank, "sweep %s: fact %v reported rank %d, RankObject says %d", k.spec.label, f.Triple, f.Rank, got)
	}
}

// digest folds every label's first-run digest into the workload's digest.
func (sr *sweepRunner) digest() string {
	parts := make([]string, 0, len(sr.labels))
	for _, l := range sr.labels {
		parts = append(parts, l+" "+sr.first[l])
	}
	return digestStrings(parts)
}

// finish reports the metrics every sweep workload shares.
func (sr *sweepRunner) finish(out *metricSet, samples map[string]int, rec *recorder) {
	a := sr.agg
	c := sr.pass0Counts
	p50, n := rec.opP50("sweep", nil)
	samples["sweep_p50_s"] = n
	out.set("sweep_p50_s", p50/1000)
	if a.allWall > 0 {
		// The paper's efficiency (§3.3): facts over sweep wall time.
		out.set("facts_per_hour", float64(a.allFacts)/a.allWall.Hours())
	}
	if a.wall > 0 {
		out.set("core.weight_share", a.weight.Seconds()/a.wall.Seconds())
		out.set("core.generate_share", a.generate.Seconds()/a.wall.Seconds())
		out.set("core.rank_share", a.rank.Seconds()/a.wall.Seconds())
		out.set("core.unattributed_share", (a.wall-a.weight-a.generate-a.rank).Seconds()/a.wall.Seconds())
	}
	if a.journalWall > 0 {
		out.set("jobs.journal_overhead_share", (a.journalWall-a.journalStages).Seconds()/a.journalWall.Seconds())
	}
	for strategy, ms := range a.byStrategyMS {
		out.set("core.sweep_ms."+strategy, ledger.Median(ms))
		samples["core.sweep_ms."+strategy] = len(ms)
	}
	if len(a.cachedMS) > 0 {
		out.set("core.cache_weights_sweep_ms", ledger.Median(a.cachedMS))
	}
	out.set("core.relation_p50_ms", ledger.Median(a.relationMS))
	out.set("core.first_relation_ms", ledger.Median(a.firstRelationMS))
	samples["core.relation_p50_ms"] = len(a.relationMS)
	samples["core.first_relation_ms"] = len(a.firstRelationMS)
	out.set("core.candidates", float64(c.candidates))
	out.set("core.facts", float64(c.facts))
	out.set("core.score_sweeps", float64(c.scoreSweeps))
	if c.batchedSweeps > 0 {
		out.set("core.batch_rows_per_sweep", float64(c.batchRows)/float64(c.batchedSweeps))
	}
	if a.allFacts > 0 {
		out.set("core.mrr", a.reciprocalRanks/float64(a.allFacts))
	}
}
