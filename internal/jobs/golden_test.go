package jobs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kg"
)

// The journal is an on-disk format: checkpoints written by one build are
// resumed by the next, and fleet workers ship the same records over the wire.
// testdata/journal_golden.wal was generated before the framing moved into
// internal/wal and the stats record folded into core.RelationStats; it is
// regenerated only when the format is changed on purpose.

// goldenDones covers the four shapes a relation record takes on disk: every
// counter set, nothing set and no facts ("facts":null, omitempty counters
// absent), a dense run (batch counters only), and a single fact.
func goldenDones() []core.RelationDone {
	fact := func(s, r, o, rank int) core.Fact {
		return core.Fact{Triple: kg.Triple{S: kg.EntityID(s), R: kg.RelationID(r), O: kg.EntityID(o)}, Rank: rank}
	}
	return []core.RelationDone{
		{
			Relation: 3,
			Facts:    []core.Fact{fact(1, 3, 2, 4), fact(5, 3, 6, 1)},
			Stats: core.RelationStats{
				Relation: 3, WeightTime: 1500 * time.Microsecond, GenerateTime: 7, RankTime: 2 * time.Second,
				Generated: 40, Iterations: 2, ScoreSweeps: 9, BatchedSweeps: 3, BatchRows: 9,
				CellsPruned: 11, PrescreenRows: 123, Facts: 2,
			},
		},
		{Relation: 0, Stats: core.RelationStats{Relation: 0}},
		{
			Relation: 7,
			Facts:    []core.Fact{fact(0, 7, 9, 2), fact(0, 7, 8, 3), fact(4, 7, 9, 500)},
			Stats: core.RelationStats{
				Relation: 7, WeightTime: 1, GenerateTime: 2, RankTime: 3,
				Generated: 500, Iterations: 5, ScoreSweeps: 33, BatchedSweeps: 2, BatchRows: 33, Facts: 3,
			},
		},
		{
			Relation: 1,
			Facts:    []core.Fact{fact(2147483647, 1, 0, 1)},
			Stats:    core.RelationStats{Relation: 1, RankTime: time.Hour, Generated: 1, Iterations: 1, ScoreSweeps: 1, Facts: 1},
		},
	}
}

func goldenHeader() Header {
	return Header{Fingerprint: "0123456789abcdef", OptionsHash: "fedcba9876543210", Strategy: "graph_degree", TotalRelations: 4}
}

func TestJournalGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "journal_golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Create(path, goldenHeader())
	if err != nil {
		t.Fatal(err)
	}
	dones := goldenDones()
	for _, d := range dones {
		if err := j.Append(RecordOf(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes changed.\n got: %q\nwant: %q", got, want)
	}

	// The read side of the same bytes: the header, every record, and the
	// stats the records merge back to.
	hdr, recs, valid := Decode(want)
	if valid != len(want) || hdr == nil || len(recs) != len(dones) {
		t.Fatalf("golden journal decodes to %d/%d bytes, header %v, %d records", valid, len(want), hdr, len(recs))
	}
	if wantHdr := goldenHeader(); hdr.Version != 1 || hdr.Fingerprint != wantHdr.Fingerprint ||
		hdr.OptionsHash != wantHdr.OptionsHash || hdr.Strategy != wantHdr.Strategy || hdr.TotalRelations != 4 {
		t.Fatalf("golden header decoded as %+v", hdr)
	}
	st := MergeRecords(recs).Stats
	if len(st.PerRelation) != len(dones) {
		t.Fatalf("merged %d per-relation stats, want %d", len(st.PerRelation), len(dones))
	}
	for i, d := range dones {
		if recs[i].Relation != d.Relation || len(recs[i].Facts) != len(d.Facts) {
			t.Fatalf("record %d: relation %d with %d facts, want %d with %d", i, recs[i].Relation, len(recs[i].Facts), d.Relation, len(d.Facts))
		}
		for k, f := range d.Facts {
			if recs[i].Facts[k] != (FactRecord{S: f.Triple.S, R: f.Triple.R, O: f.Triple.O, Rank: f.Rank}) {
				t.Fatalf("record %d fact %d decoded as %+v, want %+v", i, k, recs[i].Facts[k], f)
			}
		}
		if st.PerRelation[i] != d.Stats {
			t.Fatalf("record %d stats merged as %+v, want %+v", i, st.PerRelation[i], d.Stats)
		}
	}
	if st.Relations != 4 || st.WeightTime != 1500*time.Microsecond+1 || st.GenerateTime != 9 ||
		st.RankTime != 2*time.Second+3+time.Hour || st.Generated != 541 || st.Iterations != 8 ||
		st.ScoreSweeps != 43 || st.BatchedSweeps != 5 || st.BatchRows != 42 || st.CellsPruned != 11 || st.PrescreenRows != 123 {
		t.Fatalf("merged totals wrong: %+v", st)
	}
}

// A record journaled before relation-blocked ranking and pruning existed
// carries six counters; the four that came later must decode as zero.
func TestDecodePreBatchingRecord(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "journal_golden.wal"))
	if err != nil {
		t.Fatal(err)
	}
	header := golden[:bytes.IndexByte(golden, '\n')+1]
	const old = `{"crc":3155313819,"rec":{"relation":{"relation":2,"facts":[{"s":1,"r":2,"o":3,"rank":5}],"stats":{"weight_ns":10,"generate_ns":20,"rank_ns":30,"generated":6,"iterations":1,"score_sweeps":4}}}}` + "\n"
	data := append(append([]byte{}, header...), old...)
	_, recs, valid := Decode(data)
	if valid != len(data) || len(recs) != 1 {
		t.Fatalf("pre-batching record rejected: %d/%d bytes, %d records", valid, len(data), len(recs))
	}
	want := core.RelationStats{Relation: 2, WeightTime: 10, GenerateTime: 20, RankTime: 30, Generated: 6, Iterations: 1, ScoreSweeps: 4, Facts: 1}
	if got := MergeRecords(recs).Stats.PerRelation[0]; got != want {
		t.Fatalf("pre-batching record decoded as %+v, want %+v", got, want)
	}
}

// A checkpoint that belongs to another format version, model or options is
// refused before recovery touches it: not even its corrupt tail is truncated.
func TestRecoverMismatchLeavesFileUntouched(t *testing.T) {
	const v2 = `{"crc":1533877069,"rec":{"header":{"version":2,"fingerprint":"fp","options_hash":"oh","strategy":"s","total_relations":1}}}` + "\n"
	for _, tc := range []struct {
		field string
		want  Header
	}{
		{"version", Header{Fingerprint: "fp", OptionsHash: "oh"}},
		{"fingerprint", Header{Fingerprint: "OTHER", OptionsHash: "oh"}},
		{"options", Header{Fingerprint: "fp", OptionsHash: "OTHER"}},
	} {
		path := filepath.Join(t.TempDir(), "j.wal")
		if tc.field == "version" {
			if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			writeJournal(t, path, testHeader(), testRecord(0, 2), testRecord(1, 1))
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"crc":1,"rec":{"relat`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		before, _ := os.ReadFile(path)

		_, _, err = Recover(path, tc.want)
		var mm *MismatchError
		if !errors.As(err, &mm) || mm.Field != tc.field {
			t.Fatalf("%s: err = %v, want a %s MismatchError", tc.field, err, tc.field)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Fatalf("%s: refused checkpoint was modified: %d bytes before, %d after", tc.field, len(before), len(after))
		}
	}
}
