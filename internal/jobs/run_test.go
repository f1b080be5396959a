package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
	"repro/internal/train"
)

// testArtifacts holds one trained tiny model shared by every test in the
// package; dataset and model are read-only once trained.
var testArtifacts struct {
	once sync.Once
	ds   *kg.Dataset
	m    kge.Model
	fp   string
	err  error
}

func testModel(t testing.TB) (*kg.Dataset, kge.Model, string) {
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
		testArtifacts.fp = kge.Fingerprint(m)
	})
	if testArtifacts.err != nil {
		t.Fatalf("building test artifacts: %v", testArtifacts.err)
	}
	return testArtifacts.ds, testArtifacts.m, testArtifacts.fp
}

func testOptions() core.Options {
	return core.Options{TopN: 40, MaxCandidates: 30, Seed: 7}
}

func factsEqual(a, b []core.Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunMatchesDiscoverFacts: a journal-less Run is exactly DiscoverFacts.
func TestRunMatchesDiscoverFacts(t *testing.T) {
	ds, m, _ := testModel(t)
	direct, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewEntityFrequency(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := Run(context.Background(), Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !factsEqual(direct.Facts, res.Facts) {
		t.Fatalf("Run facts differ from DiscoverFacts: %d vs %d", len(res.Facts), len(direct.Facts))
	}
	if info.Resumed != 0 || info.TotalRelations != ds.Train.NumRelations() {
		t.Fatalf("info = %+v", info)
	}
}

// TestRunResumeByteIdentical interrupts a journaled run partway (by
// cancelling from the progress hook), resumes it, and requires the merged
// result to equal an uninterrupted run exactly.
func TestRunResumeByteIdentical(t *testing.T) {
	ds, m, fp := testModel(t)
	uninterrupted, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewEntityFrequency(), testOptions())
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "job.wal")
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err = Run(ctx, Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal,
		OnProgress: func(p Progress) {
			if p.Done == 2 { // kill the run after two relations are durable
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	res, info, err := Run(context.Background(), Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if info.Resumed < 2 || info.Resumed >= info.TotalRelations {
		t.Fatalf("resumed %d of %d relations, want a strict partial resume", info.Resumed, info.TotalRelations)
	}
	if !factsEqual(uninterrupted.Facts, res.Facts) {
		t.Fatalf("resumed facts differ from uninterrupted run: %d vs %d facts", len(res.Facts), len(uninterrupted.Facts))
	}
	// Aggregate counters must match too (they sum the same per-relation work).
	if res.Stats.Generated != uninterrupted.Stats.Generated ||
		res.Stats.ScoreSweeps != uninterrupted.Stats.ScoreSweeps ||
		res.Stats.Relations != uninterrupted.Stats.Relations {
		t.Fatalf("stats diverged: %+v vs %+v", res.Stats, uninterrupted.Stats)
	}
}

// TestRunResumeOfCompleteJournal replays a fully-journaled run without
// re-sweeping anything.
func TestRunResumeOfCompleteJournal(t *testing.T) {
	ds, m, fp := testModel(t)
	journal := filepath.Join(t.TempDir(), "job.wal")
	spec := Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal,
	}
	first, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Resume = true
	calls := 0
	second, info, err := run(context.Background(), spec, func(ctx context.Context, _ kge.Model, _ *kg.Graph, _ core.Strategy, _ core.Options) (*core.Result, error) {
		calls++
		return nil, errors.New("should not be called")
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("complete journal still swept %d times", calls)
	}
	if info.Resumed != info.TotalRelations {
		t.Fatalf("resumed %d of %d", info.Resumed, info.TotalRelations)
	}
	if !factsEqual(first.Facts, second.Facts) {
		t.Fatal("replayed facts differ")
	}
}

// TestRunRejectsForeignCheckpoint: a journal from different weights or
// options must be a hard, descriptive error.
func TestRunRejectsForeignCheckpoint(t *testing.T) {
	ds, m, fp := testModel(t)
	journal := filepath.Join(t.TempDir(), "job.wal")
	spec := Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal,
	}
	if _, _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.Resume = true

	other := spec
	other.Fingerprint = "deadbeef"
	var mm *MismatchError
	if _, _, err := Run(context.Background(), other); !errors.As(err, &mm) || mm.Field != "fingerprint" {
		t.Fatalf("foreign fingerprint: err = %v, want fingerprint MismatchError", err)
	}

	other = spec
	other.Options.Seed = 999
	if _, _, err := Run(context.Background(), other); !errors.As(err, &mm) || mm.Field != "options" {
		t.Fatalf("foreign options: err = %v, want options MismatchError", err)
	}

	// Same parameters must still resume cleanly.
	if _, _, err := Run(context.Background(), spec); err != nil {
		t.Fatalf("matching resume failed: %v", err)
	}
}

// TestRunRefusesExistingWithoutResume: -checkpoint against an existing file
// without -resume is an error, not a silent overwrite or graft.
func TestRunRefusesExistingWithoutResume(t *testing.T) {
	ds, m, fp := testModel(t)
	journal := filepath.Join(t.TempDir(), "job.wal")
	spec := Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal,
	}
	if _, _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), spec); !errors.Is(err, ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}
}

// TestRunRelationSubsetDecomposition: running two disjoint relation subsets
// and merging equals one run over their union — the invariant the resume
// path is built on.
func TestRunRelationSubsetDecomposition(t *testing.T) {
	ds, m, _ := testModel(t)
	all := ds.Train.RelationIDs()
	if len(all) < 2 {
		t.Skip("need at least two relations")
	}
	opts := testOptions()
	whole, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewGraphDegree(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var merged []core.Fact
	for _, subset := range [][]kg.RelationID{all[:1], all[1:]} {
		o := opts
		o.Relations = subset
		part, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewGraphDegree(), o)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, part.Facts...)
	}
	core.SortFactsByRank(merged)
	if !factsEqual(whole.Facts, merged) {
		t.Fatalf("decomposed run differs: %d vs %d facts", len(merged), len(whole.Facts))
	}
}

// TestOptionsHashNormalization: explicit defaults and zero values hash
// identically; any output-relevant change rehashes.
func TestOptionsHashNormalization(t *testing.T) {
	ds, _, _ := testModel(t)
	rels := ds.Train.RelationIDs()
	base := OptionsHash("s", ds.Train, core.Options{}.WithOutputDefaults(), rels)
	explicit := OptionsHash("s", ds.Train, core.Options{TopN: 500, MaxCandidates: 500}.WithOutputDefaults(), rels)
	if base != explicit {
		t.Error("defaulted and explicit options hash differently")
	}
	workers := core.Options{}.WithOutputDefaults()
	workers.Workers = 8
	if OptionsHash("s", ds.Train, workers, rels) != base {
		t.Error("worker count changed the hash (it never changes output)")
	}
	seeded := core.Options{Seed: 3}.WithOutputDefaults()
	if OptionsHash("s", ds.Train, seeded, rels) == base {
		t.Error("seed change did not change the hash")
	}
	if OptionsHash("other", ds.Train, core.Options{}.WithOutputDefaults(), rels) == base {
		t.Error("strategy change did not change the hash")
	}
	// Relation order is canonicalized away.
	if len(rels) >= 2 {
		rev := append([]kg.RelationID(nil), rels...)
		rev[0], rev[1] = rev[1], rev[0]
		if OptionsHash("s", ds.Train, core.Options{}.WithOutputDefaults(), rev) != base {
			t.Error("relation order changed the hash")
		}
	}
}

// TestOptionsHashPruneCompat pins the prune mode's back-compat contract:
// with pruning off it must not perturb the hash at all (pre-pruning
// checkpoints keep resuming), while either enabled mode must rehash.
func TestOptionsHashPruneCompat(t *testing.T) {
	ds, _, _ := testModel(t)
	rels := ds.Train.RelationIDs()
	base := OptionsHash("s", ds.Train, core.Options{}.WithOutputDefaults(), rels)

	off := core.Options{PruneMode: core.PruneOff}.WithOutputDefaults()
	if OptionsHash("s", ds.Train, off, rels) != base {
		t.Error(`PruneMode "off" changed the hash — old WALs would be rejected`)
	}

	exact := core.Options{PruneMode: core.PruneExact}.WithOutputDefaults()
	exactHash := OptionsHash("s", ds.Train, exact, rels)
	if exactHash == base {
		t.Error("enabling exact pruning did not change the hash")
	}
	approx := core.Options{PruneMode: core.PruneApprox}.WithOutputDefaults()
	if OptionsHash("s", ds.Train, approx, rels) == exactHash {
		t.Error("exact and approx modes hash identically")
	}
}

// TestOptionsHashGolden pins the exact digest for a fixed synthetic input.
// This hash is what decides whether existing WAL checkpoints resume: if this
// test fails, the canonical JSON changed shape and every deployed journal
// would be orphaned — only break it deliberately. The pruned rows carry no
// cell count or probe, the only values a pruned run can hash with.
func TestOptionsHashGolden(t *testing.T) {
	g := kg.NewGraph()
	for _, name := range []string{"a", "b", "c"} {
		g.Entities.Intern(name)
	}
	g.Relations.Intern("likes")
	g.Relations.Intern("knows")
	g.Add(kg.Triple{S: 0, R: 0, O: 1})
	g.Add(kg.Triple{S: 1, R: 1, O: 2})
	g.Add(kg.Triple{S: 2, R: 0, O: 0})
	rels := []kg.RelationID{0, 1}

	for _, c := range []struct {
		name string
		opts core.Options
		want string
	}{
		{"pre-pruning", core.Options{Seed: 42},
			"2b27c453412be083ce2683a7d5861cde54e3e242dbeef17c8284feda9053385d"},
		{"prune-exact", core.Options{Seed: 42, PruneMode: core.PruneExact},
			"2d180995e1be2b174ad396394e5791881190b660cbd8cd4f04ca66059dcb4306"},
		{"prune-approx", core.Options{Seed: 42, PruneMode: core.PruneApprox},
			"a7611bd0b7282aa70da2581f264dc35d883d221536af303c2d280c14b361e33e"},
	} {
		if got := OptionsHash("entity_frequency", g, c.opts.WithOutputDefaults(), rels); got != c.want {
			t.Errorf("%s options hash drifted:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestRunProgressTicks: every relation reports exactly one tick with a
// consistent running total.
func TestRunProgressTicks(t *testing.T) {
	ds, m, _ := testModel(t)
	var ticks []Progress
	res, _, err := Run(context.Background(), Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		OnProgress: func(p Progress) { ticks = append(ticks, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != ds.Train.NumRelations() {
		t.Fatalf("%d ticks, want one per relation (%d)", len(ticks), ds.Train.NumRelations())
	}
	sum := 0
	for i, p := range ticks {
		sum += p.Facts
		if p.Done != i+1 || p.Total != len(ticks) || p.FactsSum != sum {
			t.Fatalf("tick %d inconsistent: %+v (running sum %d)", i, p, sum)
		}
	}
	if sum != len(res.Facts) {
		t.Fatalf("ticks sum to %d facts, result has %d", sum, len(res.Facts))
	}
}

// TestJournalOnDiskIsPlainJSONL sanity-checks the on-disk format the docs
// promise: one JSON object per line.
func TestJournalOnDiskIsPlainJSONL(t *testing.T) {
	ds, m, fp := testModel(t)
	journal := filepath.Join(t.TempDir(), "job.wal")
	if _, _, err := Run(context.Background(), Spec{
		Model: m, Graph: ds.Train, Strategy: core.NewEntityFrequency(), Options: testOptions(),
		Fingerprint: fp, Journal: journal,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, valid := Decode(data)
	if valid != len(data) {
		t.Fatalf("journal has invalid bytes: %d of %d valid", valid, len(data))
	}
	if hdr.Strategy != "entity_frequency" || hdr.TotalRelations != ds.Train.NumRelations() {
		t.Fatalf("header: %+v", hdr)
	}
	if len(recs) != ds.Train.NumRelations() {
		t.Fatalf("%d records, want %d", len(recs), ds.Train.NumRelations())
	}
	seen := map[kg.RelationID]bool{}
	for _, rec := range recs {
		seen[rec.Relation] = true
	}
	if !reflect.DeepEqual(len(seen), len(recs)) {
		t.Fatal("duplicate relations in journal")
	}
}

// TestOnRelationCollectsMergeableRecords: the OnRelation hook yields one
// record per swept relation, and MergeRecords splices them — in any order —
// into a result whose facts match an uninterrupted run exactly. This is the
// invariant the fleet coordinator's byte-identity claim rests on.
func TestOnRelationCollectsMergeableRecords(t *testing.T) {
	ds, m, _ := testModel(t)
	direct, err := core.DiscoverFacts(context.Background(), m, ds.Train, core.NewEntityFrequency(), testOptions())
	if err != nil {
		t.Fatal(err)
	}

	var records []RelationRecord
	_, _, err = Run(context.Background(), Spec{
		Model:      m,
		Graph:      ds.Train,
		Strategy:   core.NewEntityFrequency(),
		Options:    testOptions(),
		OnRelation: func(rec RelationRecord) { records = append(records, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ds.Train.RelationIDs()); len(records) != want {
		t.Fatalf("OnRelation fired %d times, want %d", len(records), want)
	}

	// Reverse the delivery order: completion order across a fleet is
	// arbitrary, and the merge must not care.
	for i, j := 0, len(records)-1; i < j; i, j = i+1, j-1 {
		records[i], records[j] = records[j], records[i]
	}
	merged := MergeRecords(records)
	if !factsEqual(direct.Facts, merged.Facts) {
		t.Fatalf("merged facts differ from direct run: %d vs %d facts", len(merged.Facts), len(direct.Facts))
	}
	if merged.Stats.Relations != direct.Stats.Relations {
		t.Fatalf("merged %d relations, direct %d", merged.Stats.Relations, direct.Stats.Relations)
	}
	if merged.Stats.Generated != direct.Stats.Generated {
		t.Fatalf("merged Generated %d, direct %d", merged.Stats.Generated, direct.Stats.Generated)
	}
}

// TestOnRelationFactsAreCopies: records handed to OnRelation must not alias
// core's reusable fact buffers — a worker keeps them until the unit uploads.
func TestOnRelationFactsAreCopies(t *testing.T) {
	ds, m, _ := testModel(t)
	var records []RelationRecord
	res, _, err := Run(context.Background(), Spec{
		Model:      m,
		Graph:      ds.Train,
		Strategy:   core.NewEntityFrequency(),
		Options:    testOptions(),
		OnRelation: func(rec RelationRecord) { records = append(records, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeRecords(records)
	if !factsEqual(res.Facts, merged.Facts) {
		t.Fatal("records retained after their callbacks no longer reproduce the run's facts")
	}
}
