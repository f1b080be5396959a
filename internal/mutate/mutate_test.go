package mutate

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

var testArtifacts struct {
	once sync.Once
	ds   *kg.Dataset
	m    kge.Model
	err  error
}

func testModel(t testing.TB) (*kg.Dataset, kge.Model) {
	t.Helper()
	testArtifacts.once.Do(func() {
		ds, err := synth.Generate(synth.Tiny())
		if err != nil {
			testArtifacts.err = err
			return
		}
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  ds.Train.Entities.Len(),
			NumRelations: ds.Train.Relations.Len(),
			Dim:          8,
			Seed:         1,
		})
		if err != nil {
			testArtifacts.err = err
			return
		}
		if _, err := train.Run(context.Background(), m, ds, train.Config{Epochs: 3, BatchSize: 64, Seed: 2}); err != nil {
			testArtifacts.err = err
			return
		}
		testArtifacts.ds, testArtifacts.m = ds, m
	})
	if testArtifacts.err != nil {
		t.Fatalf("building test artifacts: %v", testArtifacts.err)
	}
	return testArtifacts.ds, testArtifacts.m
}

// cloneDataset deep-copies the mutable splits so tests can mutate one copy
// and compare against a pristine one; the dictionaries stay shared.
func cloneDataset(ds *kg.Dataset) *kg.Dataset {
	return &kg.Dataset{
		Name:  ds.Name,
		Train: ds.Train.Clone(),
		Valid: ds.Valid.Clone(),
		Test:  ds.Test.Clone(),
	}
}

// testBatch builds a batch from existing triples: it deletes a few and adds
// fresh triples over known vocabulary, plus one transient add+delete pair.
func testBatch(g *kg.Graph, seq int64) Batch {
	name := func(e kg.EntityID) string { return g.Entities.Name(int32(e)) }
	rname := func(r kg.RelationID) string { return g.Relations.Name(int32(r)) }
	ts := g.Triples()
	b := Batch{Seq: seq, Source: "test", Timestamp: "2026-08-08T00:00:00Z"}
	// Delete two existing triples.
	for _, i := range []int{3, len(ts) / 2} {
		t := ts[i]
		b.Ops = append(b.Ops, Op{Kind: OpDelete, S: name(t.S), R: rname(t.R), O: name(t.O)})
	}
	// Add two fresh edges over known vocabulary (dedup against the graph).
	added := 0
	for s := 0; s < g.NumEntities() && added < 2; s++ {
		for o := g.NumEntities() - 1; o >= 0 && added < 2; o-- {
			t := kg.Triple{S: kg.EntityID(s), R: ts[0].R, O: kg.EntityID(o)}
			if s != o && !g.Contains(t) {
				b.Ops = append(b.Ops, Op{Kind: OpAdd, S: name(t.S), R: rname(t.R), O: name(t.O)})
				added++
			}
		}
	}
	// A transient: add then delete the same novel triple. Nets to nothing.
	tr := ts[1]
	b.Ops = append(b.Ops,
		Op{Kind: OpDelete, S: name(tr.S), R: rname(tr.R), O: name(tr.O)},
		Op{Kind: OpAdd, S: name(tr.S), R: rname(tr.R), O: name(tr.O)},
	)
	return b
}

func TestApplyValidationAndSequencing(t *testing.T) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	frozen := kg.Merge(d.Valid, d.Test)
	filter := kg.Merge(d.Train, d.Valid, d.Test)
	st := NewState(d.Train, filter, frozen)

	before := d.Train.Len()
	tr := d.Train.Triples()[0]
	name := func(e kg.EntityID) string { return d.Train.Entities.Name(int32(e)) }
	rn := d.Train.Relations.Name(int32(tr.R))

	if _, err := st.Apply(Batch{Seq: 2, Ops: []Op{{Kind: OpDelete, S: name(tr.S), R: rn, O: name(tr.O)}}}); err == nil {
		t.Fatal("sequence gap accepted")
	} else {
		var gap *SequenceGapError
		if !errors.As(err, &gap) || gap.Want != 1 || gap.Got != 2 {
			t.Fatalf("wrong gap error: %v", err)
		}
	}
	if _, err := st.Apply(Batch{Seq: 1}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: got %v", err)
	}
	// A batch with one valid op and one unknown entity must not apply at all.
	if _, err := st.Apply(Batch{Seq: 1, Ops: []Op{
		{Kind: OpDelete, S: name(tr.S), R: rn, O: name(tr.O)},
		{Kind: OpAdd, S: "never-interned", R: rn, O: name(tr.O)},
	}}); err == nil {
		t.Fatal("unknown entity accepted")
	}
	if _, err := st.Apply(Batch{Seq: 1, Ops: []Op{
		{Kind: "upsert", S: name(tr.S), R: rn, O: name(tr.O)},
	}}); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	if d.Train.Len() != before || !d.Train.Contains(tr) || st.Seq() != 0 {
		t.Fatal("rejected batches mutated state")
	}

	ap, err := st.Apply(Batch{Seq: 1, Ops: []Op{{Kind: OpDelete, S: name(tr.S), R: rn, O: name(tr.O)}}})
	if err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if ap.Deleted != 1 || d.Train.Contains(tr) || st.Seq() != 1 {
		t.Fatal("delete did not apply")
	}
	if !ap.Effective() || len(ap.NetRels) != 1 || ap.NetRels[0] != tr.R {
		t.Fatalf("NetRels: got %v", ap.NetRels)
	}
}

func TestApplyMaintainsFilter(t *testing.T) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	frozen := kg.Merge(d.Valid, d.Test)
	filter := kg.Merge(d.Train, d.Valid, d.Test)
	st := NewState(d.Train, filter, frozen)

	if _, err := st.Apply(testBatch(d.Train, 1)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Delete a triple that is also in valid∪test (if any): the filter must
	// keep it. Then compare the whole filter against a from-scratch union.
	for _, tr := range append([]kg.Triple(nil), d.Train.Triples()...) {
		if frozen.Contains(tr) {
			b := Batch{Seq: 2, Ops: []Op{{
				Kind: OpDelete,
				S:    d.Train.Entities.Name(int32(tr.S)),
				R:    d.Train.Relations.Name(int32(tr.R)),
				O:    d.Train.Entities.Name(int32(tr.O)),
			}}}
			if _, err := st.Apply(b); err != nil {
				t.Fatalf("apply overlap delete: %v", err)
			}
			if !filter.Contains(tr) {
				t.Fatal("filter lost a triple still asserted by valid/test")
			}
			break
		}
	}
	want := kg.Merge(d.Train, d.Valid, d.Test)
	if filter.Len() != want.Len() {
		t.Fatalf("filter length %d, from-scratch union %d", filter.Len(), want.Len())
	}
	for _, tr := range want.Triples() {
		if !filter.Contains(tr) {
			t.Fatalf("filter missing %v", tr)
		}
	}
}

// TestAddThenDeleteRestoresState: a batch that adds triples and the next
// batch that deletes them leave the state as it was, slice for slice:
//
//	train:  t0 t1 ... tk             (v asserted by valid or test, not train)
//	seq 1:  add v, n1, n2            train: t0 ... tk v n1 n2; filter gains n1 n2
//	seq 2:  delete v, n1, n2         train: t0 ... tk;         filter keeps v
//
// Deleting v from train must not take it out of the filter, which valid or
// test still assert it in.
func TestAddThenDeleteRestoresState(t *testing.T) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	frozen := kg.Merge(d.Valid, d.Test)
	filter := kg.Merge(d.Train, d.Valid, d.Test)
	st := NewState(d.Train, filter, frozen)
	graphBefore, filterBefore := d.Train.Triples(), filter.Triples()

	var batch []kg.Triple
	for _, tr := range frozen.Triples() {
		if !d.Train.Contains(tr) {
			batch = append(batch, tr)
			break
		}
	}
	if len(batch) == 0 {
		t.Fatal("valid and test assert no triple train lacks")
	}
	r := graphBefore[0].R
	for s := 0; s < d.Train.NumEntities() && len(batch) < 3; s++ {
		if tr := (kg.Triple{S: kg.EntityID(s), R: r, O: kg.EntityID(d.Train.NumEntities() - 1 - s)}); !filter.Contains(tr) {
			batch = append(batch, tr)
		}
	}
	ops := func(kind OpKind) []Op {
		var out []Op
		for _, tr := range batch {
			out = append(out, Op{Kind: kind, S: d.Train.Entities.Name(int32(tr.S)), R: d.Train.Relations.Name(int32(tr.R)), O: d.Train.Entities.Name(int32(tr.O))})
		}
		return out
	}
	if ap, err := st.Apply(Batch{Seq: 1, Ops: ops(OpAdd)}); err != nil || ap.Added != len(batch) {
		t.Fatalf("seq 1: %+v, %v", ap, err)
	}
	if ap, err := st.Apply(Batch{Seq: 2, Ops: ops(OpDelete)}); err != nil || ap.Deleted != len(batch) {
		t.Fatalf("seq 2: %+v, %v", ap, err)
	}
	if !reflect.DeepEqual(d.Train.Triples(), graphBefore) {
		t.Error("train reads otherwise after adding and deleting the same triples")
	}
	if !reflect.DeepEqual(filter.Triples(), filterBefore) {
		t.Error("filter reads otherwise after adding and deleting the same triples")
	}
}

// TestIncrementalMatchesScratch is the core guarantee: after a mutation
// batch, IncrementalDiscover over the dirty relations splices with the prior
// sweep to exactly the facts a from-scratch DiscoverFacts produces on the
// mutated graph — for every strategy, including the extension strategies and
// the rank-filtered protocol.
func TestIncrementalMatchesScratch(t *testing.T) {
	ds, m := testModel(t)
	names := append(core.StrategyNames(), core.ExtensionStrategyNames()...)
	for _, sname := range names {
		sname := sname
		t.Run(sname, func(t *testing.T) {
			strategy, err := core.StrategyByName(sname)
			if err != nil {
				t.Fatal(err)
			}
			d := cloneDataset(ds)
			frozen := kg.Merge(d.Valid, d.Test)
			filter := kg.Merge(d.Train, d.Valid, d.Test)
			st := NewState(d.Train, filter, frozen)
			opts := core.Options{TopN: 30, MaxCandidates: 25, Seed: 11, RankFiltered: true}

			// Baseline sweep on the pre-mutation graph, records collected.
			var prior []jobs.RelationRecord
			if _, _, err := jobs.Run(context.Background(), jobs.Spec{
				Model: m, Graph: d.Train, Strategy: strategy, Options: opts,
				OnRelation: func(rec jobs.RelationRecord) { prior = append(prior, rec) },
			}); err != nil {
				t.Fatalf("baseline run: %v", err)
			}

			ap, err := st.Apply(testBatch(d.Train, 1))
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			dirty := st.DirtyRelations(sname, ap)
			if len(dirty) == 0 {
				t.Fatal("test batch produced no dirty relations")
			}
			inc, recs, err := IncrementalDiscover(context.Background(), jobs.Spec{
				Model: m, Graph: d.Train, Strategy: strategy, Options: opts,
			}, prior, dirty)
			if err != nil {
				t.Fatalf("incremental: %v", err)
			}

			scratch, err := core.DiscoverFacts(context.Background(), m, d.Train, strategy, opts)
			if err != nil {
				t.Fatalf("scratch: %v", err)
			}
			if !reflect.DeepEqual(inc.Facts, scratch.Facts) {
				t.Fatalf("incremental facts differ from scratch: %d vs %d facts (dirty=%d/%d)",
					len(inc.Facts), len(scratch.Facts), len(dirty), len(d.Train.RelationIDs()))
			}
			if len(recs) != len(d.Train.RelationIDs()) {
				t.Fatalf("record set covers %d relations, graph has %d", len(recs), len(d.Train.RelationIDs()))
			}
			if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Relation < recs[j].Relation }) {
				t.Fatal("records not sorted by relation")
			}
		})
	}
}

// TestTransientBatchDirtiesNothing: an add-then-delete of the same novel
// triple restores the graph exactly, so no relation is dirty for any
// strategy and the batch reports itself ineffective.
func TestTransientBatchDirtiesNothing(t *testing.T) {
	ds, _ := testModel(t)
	d := cloneDataset(ds)
	st := NewState(d.Train, nil, nil)
	g := d.Train
	ts := g.Triples()
	var novel kg.Triple
	found := false
	for s := 0; s < g.NumEntities() && !found; s++ {
		t := kg.Triple{S: kg.EntityID(s), R: ts[0].R, O: ts[0].O}
		if s != int(ts[0].O) && !g.Contains(t) {
			novel, found = t, true
		}
	}
	if !found {
		t.Skip("no novel triple available")
	}
	name := func(e kg.EntityID) string { return g.Entities.Name(int32(e)) }
	rn := g.Relations.Name(int32(novel.R))
	ap, err := st.Apply(Batch{Seq: 1, Ops: []Op{
		{Kind: OpAdd, S: name(novel.S), R: rn, O: name(novel.O)},
		{Kind: OpDelete, S: name(novel.S), R: rn, O: name(novel.O)},
	}})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if ap.Effective() {
		t.Fatalf("transient batch reported effective: %+v", ap)
	}
	for _, sname := range append(core.StrategyNames(), append(core.ExtensionStrategyNames(), "")...) {
		if dirty := st.DirtyRelations(sname, ap); len(dirty) != 0 {
			t.Fatalf("strategy %q: transient batch dirtied %v", sname, dirty)
		}
	}
}

func TestLogReplayAndRecovery(t *testing.T) {
	ds, _ := testModel(t)
	path := filepath.Join(t.TempDir(), "mutations.wal")

	d1 := cloneDataset(ds)
	st1 := NewState(d1.Train, nil, nil)
	log1, batches, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(batches) != 0 {
		t.Fatalf("fresh log returned %d batches", len(batches))
	}
	st1.AttachLog(log1)
	b1 := testBatch(d1.Train, 1)
	if _, err := st1.Apply(b1); err != nil {
		t.Fatalf("apply 1: %v", err)
	}
	b2 := testBatch(d1.Train, 2)
	if _, err := st1.Apply(b2); err != nil {
		t.Fatalf("apply 2: %v", err)
	}
	log1.Close()

	// Reopen: base dataset + log replays to the identical graph and seq.
	d2 := cloneDataset(ds)
	st2 := NewState(d2.Train, nil, nil)
	log2, recovered, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer log2.Close()
	if len(recovered) != 2 || recovered[0].Seq != 1 || recovered[1].Seq != 2 {
		t.Fatalf("recovered %d batches %+v", len(recovered), recovered)
	}
	if recovered[0].Source != "test" || recovered[0].Timestamp != "2026-08-08T00:00:00Z" {
		t.Fatalf("provenance not preserved: %+v", recovered[0])
	}
	if err := st2.Replay(recovered); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if st2.Seq() != 2 {
		t.Fatalf("replayed seq %d", st2.Seq())
	}
	if d2.Train.Len() != d1.Train.Len() {
		t.Fatalf("replayed graph has %d triples, live one %d", d2.Train.Len(), d1.Train.Len())
	}
	// The replayed graph took the same history, so it reads in the same
	// order, not only with the same triples.
	if got, want := d2.Train.Triples(), d1.Train.Triples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed graph reads %d triples in another order than the live one's %d", len(got), len(want))
	}
}

func TestLogTruncatedTail(t *testing.T) {
	ds, _ := testModel(t)
	path := filepath.Join(t.TempDir(), "mutations.wal")
	d := cloneDataset(ds)
	st := NewState(d.Train, nil, nil)
	log, _, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	st.AttachLog(log)
	if _, err := st.Apply(testBatch(d.Train, 1)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	// Append garbage (a torn write) and reopen: the valid prefix survives,
	// the tail is truncated, and appends continue cleanly.
	appendBytes(t, path, []byte(`{"crc":1,"rec":{"batch"`))
	log2, recovered, err := OpenLog(path, "tiny")
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d batches, want 1", len(recovered))
	}
	d2 := cloneDataset(ds)
	st2 := NewState(d2.Train, nil, nil)
	if err := st2.Replay(recovered); err != nil {
		t.Fatal(err)
	}
	st2.AttachLog(log2)
	if _, err := st2.Apply(testBatch(d2.Train, 2)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	log2.Close()

	_, recovered, err = OpenLog(path, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("after recovery+append: %d batches, want 2", len(recovered))
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
