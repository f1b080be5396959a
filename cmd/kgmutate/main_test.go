package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/mutate"
	"repro/internal/synth"
	"repro/internal/train"
	"repro/internal/wal"
)

// fixture writes the tiny generated dataset and two trained checkpoints (the
// second only exists to be the wrong model for a baseline).
func fixture(t *testing.T) (dataDir, modelPath, otherModel string) {
	t.Helper()
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(t.TempDir(), "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 2)
	for i := range paths {
		m, err := kge.New("distmult", kge.Config{
			NumEntities:  reloaded.Train.Entities.Len(),
			NumRelations: reloaded.Train.Relations.Len(),
			Dim:          8,
			Seed:         int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.Run(context.Background(), m, reloaded, train.Config{Epochs: 3, BatchSize: 64, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(t.TempDir(), "m.kge")
		if err := kge.SaveFlatFile(m, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return dataDir, paths[0], paths[1]
}

// sweep is `kgdiscover -data -model -strategy … [-checkpoint journal] [-out
// outTSV]` without the process: the same jobs.Run over the same options, the
// TSV through the same graph-and-WriteTSV rendering.
func sweep(t *testing.T, dataDir, modelPath, strategy, journal, outTSV string) {
	t.Helper()
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kge.OpenMapped(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	strat, err := core.StrategyByName(strategy)
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{
		Model: m, Graph: ds.Train, Strategy: strat, Journal: journal,
		Options: core.Options{TopN: 40, MaxCandidates: 60, Seed: 3},
	}
	if journal != "" {
		spec.Fingerprint = kge.Fingerprint(m)
	}
	res, _, err := jobs.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if outTSV == "" {
		return
	}
	out := kg.NewGraphWithDicts(ds.Train.Entities, ds.Train.Relations)
	for _, f := range res.Facts {
		out.Add(f.Triple)
	}
	var sb strings.Builder
	if err := kg.WriteTSV(out, &sb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outTSV, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// frame is one WAL record of rec.
func frame(t *testing.T, rec any) []byte {
	t.Helper()
	b, err := wal.Frame(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIncrementalRounds drives the whole cycle kgmutate exists for, twice
// over per strategy: verify the baseline, apply a batch, re-sweep the dirty
// relations, dump the mutated dataset, write the next baseline. Each round's
// -out must equal a from-scratch sweep of that round's -dump-data byte for
// byte, round two starts from round one's -sweep-out and from the mutation
// log round one wrote, and baselines that cannot be spliced are refused.
func TestIncrementalRounds(t *testing.T) {
	dataDir, modelPath, otherModel := fixture(t)
	ds, err := kg.LoadDataset(dataDir, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	ts := ds.Train.Triples()
	op := func(kind mutate.OpKind, s kg.EntityID, r kg.RelationID, o kg.EntityID) mutate.Op {
		return mutate.Op{Kind: kind, S: ds.Train.Entities.Name(int32(s)), R: ds.Train.Relations.Name(int32(r)), O: ds.Train.Entities.Name(int32(o))}
	}
	// Round one deletes two triples and re-adds the first with its endpoints
	// swapped; round two deletes that one again and removes a third.
	rounds := []mutate.Batch{
		{Seq: 1, Source: "test", Timestamp: "2026-10-02T00:00:00Z", Ops: []mutate.Op{
			op(mutate.OpDelete, ts[0].S, ts[0].R, ts[0].O),
			op(mutate.OpDelete, ts[1].S, ts[1].R, ts[1].O),
			op(mutate.OpAdd, ts[0].O, ts[0].R, ts[0].S),
		}},
		{Seq: 2, Source: "test", Ops: []mutate.Op{
			op(mutate.OpDelete, ts[0].O, ts[0].R, ts[0].S),
			op(mutate.OpDelete, ts[len(ts)/2].S, ts[len(ts)/2].R, ts[len(ts)/2].O),
		}},
	}

	for _, strategy := range []string{
		"entity_frequency", // dirties only the touched relations: the rest splice
		"graph_degree",
		"cluster_triangles",
		// An extension strategy: kgdiscover resolves the same eight names, so
		// it can write this baseline too (cmd/kgdiscover's checkpoint test).
		"mixed_exploration",
	} {
		t.Run(strategy, func(t *testing.T) {
			dir := t.TempDir()
			in := func(name string) string { return filepath.Join(dir, name) }
			read := func(path string) string {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			argvFor := func(model, baseline, batch string, extra ...string) []string {
				return append([]string{"-data", dataDir, "-model", model, "-baseline", baseline, "-batch", batch,
					"-strategy", strategy, "-top_n", "40", "-max_candidates", "60", "-seed", "3", "-limit", "2"}, extra...)
			}
			argv := func(baseline, batch string, extra ...string) []string {
				return argvFor(modelPath, baseline, batch, extra...)
			}

			baseline := in("base.wal")
			sweep(t, dataDir, modelPath, strategy, baseline, "")
			for i, b := range rounds {
				batch := in("batch.json")
				raw, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(batch, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				next, dump := in("next.wal"), in("dump")
				os.Remove(next)
				if err := run(argv(baseline, batch, "-log", in("mutations.wal"),
					"-out", in("inc.tsv"), "-dump-data", dump, "-sweep-out", next)); err != nil {
					t.Fatalf("round %d: %v", i+1, err)
				}
				sweep(t, dump, modelPath, strategy, "", in("scratch.tsv"))
				if got, want := read(in("inc.tsv")), read(in("scratch.tsv")); got != want || got == "" {
					t.Fatalf("round %d: incremental TSV differs from a from-scratch sweep of the mutated graph (%d vs %d bytes)", i+1, len(got), len(want))
				}
				// The round's -sweep-out is the next round's -baseline; keep
				// round one's input for the error rows below.
				if i == 0 {
					baseline = in("round1.wal")
					if err := os.Rename(next, baseline); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Both rounds are in the log, so a third run resumes at seq 2: a
			// replay of seq 2 is a gap, and nothing is appended for it.
			logBytes := read(in("mutations.wal"))
			_, logged, valid := mutate.DecodeLog([]byte(logBytes))
			if len(logged) != 2 || logged[0].Seq != 1 || logged[1].Seq != 2 || valid != len(logBytes) {
				t.Fatalf("mutation log holds %d batches over %d valid bytes, want seq 1 and 2", len(logged), valid)
			}
			err := run(argv(in("next.wal"), in("batch.json"), "-log", in("mutations.wal")))
			if err == nil || !strings.Contains(err.Error(), "expected batch seq 3, got 2") {
				t.Fatalf("replayed seq 2 against a log at seq 2: err = %v, want a sequence gap", err)
			}

			for _, bad := range []struct {
				name, want string
				args       []string
			}{
				// Round one's baseline describes the graph before any batch;
				// with the log replayed the graph is two rounds further on.
				{"stale baseline", "options mismatch", argv(in("base.wal"), in("batch.json"), "-log", in("mutations.wal"))},
				{"other options", "options mismatch", argv(in("base.wal"), in("batch.json"), "-seed", "4")},
				{"wrong model", "fingerprint mismatch", argvFor(otherModel, in("base.wal"), in("batch.json"))},
				{"not a checkpoint", "not a discovery checkpoint", argv(in("batch.json"), in("batch.json"))},
			} {
				if err := run(bad.args); err == nil || !strings.Contains(err.Error(), bad.want) {
					t.Errorf("%s: err = %v, want one containing %q", bad.name, err, bad.want)
				}
			}

			// An interrupted baseline (its last relation never journaled)
			// cannot be a splice source.
			full := read(in("base.wal"))
			cut := strings.LastIndex(strings.TrimSuffix(full, "\n"), "\n") + 1
			if err := os.WriteFile(in("partial.wal"), []byte(full[:cut]), 0o644); err != nil {
				t.Fatal(err)
			}
			raw, _ := json.Marshal(rounds[0])
			if err := os.WriteFile(in("batch.json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run(argv(in("partial.wal"), in("batch.json"))); err == nil || !strings.Contains(err.Error(), "finish the sweep") {
				t.Errorf("incomplete baseline: err = %v, want a refusal naming the missing relations", err)
			}
			// ...and the same batch over the complete one applies: the refusal
			// above was about the baseline, not the batch.
			if err := run(argv(in("base.wal"), in("batch.json"))); err != nil {
				t.Errorf("complete baseline, no log: %v", err)
			}
			// The same baseline under a header of another journal version is
			// refused: its records may not mean what this version's do.
			hdr, recs, _ := jobs.Decode([]byte(full))
			hdr.Version = 2
			v2 := frame(t, map[string]any{"header": hdr})
			for _, rec := range recs {
				v2 = append(v2, frame(t, map[string]any{"relation": rec})...)
			}
			if err := os.WriteFile(in("v2.wal"), v2, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run(argv(in("v2.wal"), in("batch.json"))); err == nil || !strings.Contains(err.Error(), "version mismatch") {
				t.Errorf("version-2 baseline: err = %v, want a version mismatch", err)
			}
		})
	}
}
