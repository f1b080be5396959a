package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/bench/ledger"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/mutate"
)

// sweepDense is the ranking-bound workload: dense discovery sweeps over all
// six models through jobs.Run (plain, journaled, through a fleet
// coordinator) plus one incremental resweep after a mutation. Strategy
// weights cost almost nothing here; vecmath → kge sweeps → eval dense batch
// ranking do the work.
type sweepDense struct {
	e   *env
	sha string
	ds  *kg.Dataset
	sr  *sweepRunner

	dataDir, modelPath string
	fleetStop          func()
	coord              *fleet.Coordinator

	// D phase: a clone of the train graph that mutations accumulate on, so
	// the graph the A–C sweeps read never changes and their digests repeat.
	clone   *kg.Graph
	mstate  *mutate.State
	prior   []jobs.RelationRecord
	mutRNG  *rand.Rand
	lastInc *core.Result
	dirty   []float64

	lastFleetSeed  int64
	lastFleetFacts []core.Fact
	fleetUnits     int
	fleetMS        []float64

	// verify leaves these for the probes.
	directFullMS, scratchFullMS float64
}

// denseVariants are the four (strategy, protocol) combinations of phase A;
// variant v sweeps relations v, v+4, v+8, … so that a model's four sweeps
// together cover every relation once.
var denseVariants = []struct {
	strategy string
	filtered bool
}{
	{"entity_frequency", false},
	{"uniform_random", false},
	{"entity_frequency", true},
	{"uniform_random", true},
}

func (w *sweepDense) fixtureSHA() string   { return w.sha }
func (w *sweepDense) primaryClass() string { return "sweep" }
func (w *sweepDense) concurrent() bool     { return false }

func (w *sweepDense) setup(st stageTimes) error {
	e := w.e
	synthDS, sha, err := makeFixture(e, st)
	if err != nil {
		return err
	}
	w.sha = sha
	// The fleet's coordinator and worker read the dataset and checkpoint
	// from disk, so everything here runs on the disk-loaded dataset: entity
	// IDs then agree between fleet and direct sweeps.
	w.dataDir = filepath.Join(e.dir, "data")
	if err := kg.SaveDataset(synthDS, w.dataDir); err != nil {
		return err
	}
	if err := st.timed("kg.load_dataset", func() error {
		w.ds, err = kg.LoadDataset(w.dataDir, w.dataDir)
		return err
	}); err != nil {
		return err
	}

	w.sr = newSweepRunner(e, w.ds.Train)
	sub := subsample(w.ds, e.pre.subsampleTriples)
	for _, name := range sweepModels {
		if err := st.timed("train."+name, func() error {
			m, err := trainedModel(e, name, sub, 1)
			w.sr.models[name] = m
			return err
		}); err != nil {
			return err
		}
		w.sr.prints[name] = kge.Fingerprint(w.sr.models[name])
	}
	w.modelPath = filepath.Join(e.dir, "distmult.flat")
	if err := kge.SaveFlatFile(w.sr.models["distmult"], w.modelPath); err != nil {
		return err
	}
	if err := w.startFleet(); err != nil {
		return err
	}

	w.clone = w.ds.Train.Clone()
	w.mstate = mutate.NewState(w.clone, nil, nil)
	w.prior = nil
	w.mutRNG = rand.New(rand.NewSource(e.seed))
	return nil
}

// startFleet runs a serve-mode coordinator on a loopback listener and one
// in-process worker polling it.
func (w *sweepDense) startFleet() error {
	w.coord = fleet.New(fleet.Config{PollInterval: 10 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(w.e.ctx)
	srv := &http.Server{Handler: w.coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	go w.coord.Run(ctx)
	worker := fleet.NewWorker(fleet.WorkerConfig{Coordinator: "http://" + ln.Addr().String(), Name: "kgbench-worker"})
	workerErr := make(chan error, 1)
	go func() { workerErr <- worker.Run(ctx) }()
	w.fleetStop = func() {
		cancel()
		<-workerErr
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shCancel()
		srv.Shutdown(shCtx)
		<-serveErr
	}
	return nil
}

func (w *sweepDense) teardown() {
	if w.fleetStop != nil {
		w.fleetStop()
		w.fleetStop = nil
	}
}

func (w *sweepDense) pass(i int, rec *recorder, ck *checker) float64 {
	e := w.e
	rels := w.ds.Train.RelationIDs()
	nv := len(denseVariants)

	// A: plain sweeps, every model × variant.
	for _, model := range sweepModels {
		for v, dv := range denseVariants {
			proto := "raw"
			if dv.filtered {
				proto = "filtered"
			}
			w.sr.run(rec, ck, i, sweepSpec{
				label: fmt.Sprintf("A/%s/%s/%s", model, dv.strategy, proto), class: "sweep",
				model: model, strategy: dv.strategy, filtered: dv.filtered,
				relations: relationSlice(rels, v, nv), seed: e.seed,
			}, nil)
		}
	}

	// B: journaled sweeps (one fsync per relation). distmult's covers every
	// relation: its records are the baseline phase D splices from.
	var baseline []jobs.RelationRecord
	for _, model := range sweepModels {
		s := sweepSpec{label: "B/" + model, class: "sweep.journal", model: model,
			strategy: "entity_frequency", relations: relationSlice(rels, 0, nv), seed: e.seed, journal: true}
		var onRel func(jobs.RelationRecord)
		if model == "distmult" {
			s.relations = nil
			onRel = func(r jobs.RelationRecord) { baseline = append(baseline, r) }
		}
		w.sr.run(rec, ck, i, s, onRel)
	}
	if w.prior == nil {
		w.prior = baseline
	}

	// C: one distmult sweep through the fleet. The coordinator answers a
	// repeated sweep from memory, so the seed moves with the pass.
	w.lastFleetSeed = e.seed + 1000 + int64(i)
	ck.ops(1)
	var resp *fleet.SweepResponse
	var err error
	wall := rec.op("sweep.fleet", "fleet.submit:C/fleet", func(int) {
		resp, err = w.coord.Submit(e.ctx, fleet.SweepRequest{
			Data: w.dataDir, Model: w.modelPath, Strategy: "entity_frequency",
			Options:       fleet.SweepOptions{TopN: e.pre.topN, MaxCandidates: e.pre.maxCandidates, Seed: w.lastFleetSeed},
			UnitRelations: (len(rels) + nv - 1) / nv,
		})
	})
	fleetFacts := 0
	if err != nil {
		ck.fail("fleet sweep: %v", err)
	} else {
		w.lastFleetFacts = factsOfRecords(resp.Facts)
		w.fleetUnits = resp.Fleet.Units
		w.fleetMS = append(w.fleetMS, millis(wall))
		fleetFacts = len(resp.Facts)
		ck.check(resp.Fleet.Reassigned == 0 && resp.Fleet.DuplicateRecords == 0,
			"fleet sweep reassigned %d units, %d duplicate records", resp.Fleet.Reassigned, resp.Fleet.DuplicateRecords)
	}

	// D: one mutation batch on the clone, then re-sweep only what it dirtied.
	incFacts := w.mutateAndResweep(i, rec, ck)

	return w.sr.endPass(ck, i) + float64(fleetFacts+incFacts)
}

// incrementalSpec is the sweep phase D keeps current on the mutated clone.
func (w *sweepDense) incrementalSpec() jobs.Spec {
	strategy, _ := core.ExtendedStrategyByName("entity_frequency")
	return jobs.Spec{
		Model: w.sr.models["distmult"], Graph: w.clone, Strategy: strategy,
		Options: core.Options{TopN: w.e.pre.topN, MaxCandidates: w.e.pre.maxCandidates, Seed: w.e.seed, Workers: w.e.p},
	}
}

func (w *sweepDense) mutateAndResweep(i int, rec *recorder, ck *checker) int {
	rels := w.clone.RelationIDs()
	batch := mutationBatch(w.clone, rels[i%len(rels)], w.mstate.Seq()+1, w.mutRNG)
	ck.ops(2)
	var ap mutate.Applied
	var err error
	rec.op("mutate.apply", "mutate.apply:D/apply", func(int) { ap, err = w.mstate.Apply(batch) })
	if err != nil {
		ck.fail("mutate apply: %v", err)
		return 0
	}
	dirty := w.mstate.DirtyRelations("entity_frequency", ap)
	w.dirty = append(w.dirty, float64(len(dirty)))
	var res *core.Result
	rec.op("sweep.incremental", "mutate.incremental_discover:D/incremental", func(int) {
		res, w.prior, err = mutate.IncrementalDiscover(w.e.ctx, w.incrementalSpec(), w.prior, dirty)
	})
	if err != nil {
		ck.fail("incremental discover: %v", err)
		return 0
	}
	w.lastInc = res
	return len(res.Facts)
}

// mutationBatch builds one batch over existing vocabulary, all in relation
// r: four adds of absent triples and four deletes of present ones.
func mutationBatch(g *kg.Graph, r kg.RelationID, seq int64, rng *rand.Rand) mutate.Batch {
	b := mutate.Batch{Seq: seq, Source: "kgbench"}
	name := func(t kg.Triple) (string, string, string) {
		return g.Entities.Name(int32(t.S)), g.Relations.Name(int32(t.R)), g.Entities.Name(int32(t.O))
	}
	present := g.RelationTriples(r)
	picked := map[kg.Triple]bool{}
	for len(picked) < 4 && len(picked) < len(present) {
		t := present[rng.Intn(len(present))]
		if picked[t] {
			continue
		}
		picked[t] = true
		s, rn, o := name(t)
		b.Ops = append(b.Ops, mutate.Op{Kind: mutate.OpDelete, S: s, R: rn, O: o})
	}
	n := g.NumEntities()
	for added := 0; added < 4; {
		t := kg.Triple{S: kg.EntityID(rng.Intn(n)), R: r, O: kg.EntityID(rng.Intn(n))}
		if g.Contains(t) || picked[t] {
			continue
		}
		picked[t] = true
		added++
		s, rn, o := name(t)
		b.Ops = append(b.Ops, mutate.Op{Kind: mutate.OpAdd, S: s, R: rn, O: o})
	}
	return b
}

func factsOfRecords(recs []jobs.FactRecord) []core.Fact {
	out := make([]core.Fact, len(recs))
	for i, f := range recs {
		out[i] = core.Fact{Triple: kg.Triple{S: f.S, R: f.R, O: f.O}, Rank: f.Rank}
	}
	return out
}

func (w *sweepDense) verify(ck *checker) {
	w.sr.recheckRanks(ck)

	// The last fleet sweep against the same sweep run directly.
	strategy, _ := core.ExtendedStrategyByName("entity_frequency")
	t := time.Now()
	direct, _, err := jobs.Run(w.e.ctx, jobs.Spec{
		Model: w.sr.models["distmult"], Graph: w.ds.Train, Strategy: strategy,
		Options: core.Options{TopN: w.e.pre.topN, MaxCandidates: w.e.pre.maxCandidates, Seed: w.lastFleetSeed, Workers: w.e.p},
	})
	w.directFullMS = millis(time.Since(t))
	if err != nil {
		ck.check(false, "direct reference sweep: %v", err)
	} else {
		ck.check(digestFacts(direct.Facts) == digestFacts(w.lastFleetFacts), "fleet sweep output differs from the same sweep run directly")
	}

	// The spliced incremental result against a from-scratch sweep of the
	// mutated clone.
	if w.lastInc == nil {
		ck.check(false, "no incremental result to verify")
		return
	}
	t = time.Now()
	scratch, _, err := jobs.Run(w.e.ctx, w.incrementalSpec())
	w.scratchFullMS = millis(time.Since(t))
	if err != nil {
		ck.check(false, "from-scratch reference sweep: %v", err)
		return
	}
	ck.check(digestFacts(scratch.Facts) == digestFacts(w.lastInc.Facts), "incremental resweep differs from a from-scratch sweep of the mutated graph")
}

func (w *sweepDense) digests() map[string]string {
	d := map[string]string{"sweeps": w.sr.digest()}
	for _, name := range sweepModels {
		d["fingerprint."+name] = w.sr.prints[name]
	}
	return d
}

func (w *sweepDense) finish(out *metricSet, samples map[string]int, rec *recorder) {
	w.sr.finish(out, samples, rec)
	out.set("fleet.units", float64(w.fleetUnits))
	out.set("mutate.dirty_relations_per_batch", ledger.Median(w.dirty))
	inc := rec.samples("sweep.incremental", nil)
	out.set("mutate.incremental_resweep_ms", ledger.Median(inc))
	samples["mutate.incremental_resweep_ms"] = len(inc)
	if w.scratchFullMS > 0 {
		out.set("mutate.incremental_vs_full_ratio", ledger.Median(inc)/w.scratchFullMS)
	}
	if w.directFullMS > 0 {
		// One worker on the load generator's own cores: this is what the
		// protocol costs (dataset load on submit, leases, per-unit first
		// relations), never a scaling number.
		out.set("fleet.protocol_overhead_ms", ledger.Median(w.fleetMS)-w.directFullMS)
	}
	out.set("mutate.apply_p50_us", ledger.Median(rec.samples("mutate.apply", nil))*1000)
}

func (w *sweepDense) probes(out *metricSet) error {
	e := w.e
	distmult := w.sr.models["distmult"]
	b := newProbeBlock(e, w.ds.Train)
	matmat := probeVecmath(e, distmult.(kge.ObjectSweeper), out)
	batch := probeKGE(e, w.sr.models, b, out)
	block := probeEvalDense(e, distmult, b, out)
	probeSelfShares(matmat, batch, block, out)
	factsPerRelation := 1
	if n := len(w.ds.Train.RelationIDs()); n > 0 && w.lastInc != nil {
		factsPerRelation += len(w.lastInc.Facts) / n
	}
	return probeJournalAppend(e, factsPerRelation, out)
}
