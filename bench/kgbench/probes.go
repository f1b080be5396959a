package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/prune"
	"repro/internal/vecmath"
)

// Layer probes: direct timed calls into one layer's public functions with
// the workload's shapes, run after the measured phase of a traced run. One
// relation block of a sweep is probeGroups (s, r) groups of probeObjects
// candidates each; probes nest (RankObjectsBatch ⊃ ScoreAllObjectsBatch ⊃
// MatMat), so a layer's self time is its probe minus the probe beneath it.
const (
	probeGroups  = 20
	probeObjects = 23
)

// probeBlock is the relation block every ranking probe uses.
type probeBlock struct {
	rel      kg.RelationID
	subjects []kg.EntityID
	groups   []eval.Group
}

func newProbeBlock(e *env, g *kg.Graph) probeBlock {
	rng := rand.New(rand.NewSource(e.seed))
	n := g.NumEntities()
	b := probeBlock{rel: g.RelationIDs()[0]}
	for i := 0; i < probeGroups; i++ {
		s := kg.EntityID(rng.Intn(n))
		objs := make([]kg.EntityID, probeObjects)
		for j := range objs {
			objs[j] = kg.EntityID(rng.Intn(n))
		}
		b.subjects = append(b.subjects, s)
		b.groups = append(b.groups, eval.Group{S: s, Objects: objs})
	}
	return b
}

// probeVecmath times the two kernels under every dense sweep against the
// model's entity table. Bytes are computed from the shapes (table + queries +
// output, each touched once), not measured.
func probeVecmath(e *env, sw kge.ObjectSweeper, out *metricSet) (matmat time.Duration) {
	table := sw.SweepEntityTable()
	n, d := table.Rows, table.Cols
	rng := rand.New(rand.NewSource(e.seed))
	q := vecmath.NewMatrix(probeGroups, d)
	vecmath.NormalInit(rng, q.Data, 0, 1)

	dst := make([]float32, n)
	matvec := timeIt(e.pre.probeReps*4, func() { vecmath.MatVec(dst, table, q.Row(0)) })
	out.set("vecmath.matvec_gbps", float64(4*(n*d+d+n))/matvec.Seconds()/1e9)

	dstM := vecmath.NewMatrix(probeGroups, n)
	matmat = timeIt(e.pre.probeReps, func() { vecmath.MatMat(dstM, table, q) })
	out.set("vecmath.matmat_gbps", float64(4*(n*d+probeGroups*d+probeGroups*n))/matmat.Seconds()/1e9)
	return matmat
}

// probeKGE times each model's single and batched object sweep.
func probeKGE(e *env, models map[string]kge.Trainable, b probeBlock, out *metricSet) (distmultBatch time.Duration) {
	for _, name := range sweepModels {
		m, ok := models[name]
		if !ok {
			continue
		}
		scores := make([]float32, m.NumEntities())
		one := timeIt(e.pre.probeReps, func() { m.ScoreAllObjects(b.subjects[0], b.rel, scores) })
		out.set("kge.sweep_us."+name, micros(one))
		mat := vecmath.NewMatrix(len(b.subjects), m.NumEntities())
		batch := timeIt(e.pre.probeReps, func() { kge.ScoreAllObjectsBatch(m, b.subjects, b.rel, mat) })
		out.set("kge.batch_sweep_us_per_row."+name, micros(batch)/float64(len(b.subjects)))
		if name == "distmult" {
			distmultBatch = batch
		}
	}
	return distmultBatch
}

// probeEvalDense times the dense ranking paths on distmult under the raw
// protocol: one candidate, one group, one relation block.
func probeEvalDense(e *env, m kge.Model, b probeBlock, out *metricSet) (block time.Duration) {
	rk := eval.NewRanker(m, nil)
	g0 := b.groups[0]
	t := kg.Triple{S: g0.S, R: b.rel, O: g0.Objects[0]}
	out.set("eval.rank_object_us", micros(timeIt(e.pre.probeReps*4, func() { rk.RankObject(t) })))
	out.set("eval.rank_objects_us", micros(timeIt(e.pre.probeReps*4, func() { rk.RankObjects(g0.S, b.rel, g0.Objects) })))
	block = timeIt(e.pre.probeReps, func() { rk.RankObjectsBatch(b.rel, b.groups) })
	out.set("eval.rank_batch_ms_per_block", millis(block))
	return block
}

// probeEvalPruned times one relation block through the pruned ranking path
// in both modes.
func probeEvalPruned(e *env, m kge.Model, ix *prune.Index, topN int, b probeBlock, out *metricSet) {
	rk := eval.NewRanker(m, nil)
	exact := timeIt(e.pre.probeReps, func() { rk.RankObjectsPruned(b.rel, b.groups, topN, eval.PruneConfig{Index: ix, Exact: true}) })
	approx := timeIt(e.pre.probeReps, func() { rk.RankObjectsPruned(b.rel, b.groups, topN, eval.PruneConfig{Index: ix}) })
	out.set("eval.pruned_exact_ms_per_block", millis(exact))
	out.set("eval.pruned_approx_ms_per_block", millis(approx))
}

// probeSelfShares turns the nested probes into self shares: what is left of
// a layer's probe once the probe of the layer beneath it is taken out.
func probeSelfShares(matmat, batchSweep, block time.Duration, out *metricSet) {
	if batchSweep > 0 {
		out.set("kge.self_share", (batchSweep-matmat).Seconds()/batchSweep.Seconds())
	}
	if block > 0 {
		out.set("eval.self_share", (block-batchSweep).Seconds()/block.Seconds())
	}
}

// probeJournalAppend times jobs.Journal.Append (write + fsync) with a record
// of a typical relation's size.
func probeJournalAppend(e *env, facts int, out *metricSet) error {
	path := filepath.Join(e.dir, "probe.wal")
	j, err := jobs.Create(path, jobs.Header{Fingerprint: "probe", OptionsHash: "probe", Strategy: "probe", TotalRelations: 1 << 20})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	defer j.Close()
	rec := jobs.RelationRecord{Facts: make([]jobs.FactRecord, facts)}
	next := 0
	d := timeIt(e.pre.probeReps*4, func() {
		rec.Relation = kg.RelationID(next)
		next++
		if aerr := j.Append(rec); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	out.set("jobs.append_p50_us", micros(d))
	return nil
}
