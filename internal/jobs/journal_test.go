package jobs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/wal"
)

func testHeader() Header {
	return Header{Version: journalVersion, Fingerprint: "fp", OptionsHash: "oh", Strategy: "entity_frequency", TotalRelations: 3}
}

func testRecord(r kg.RelationID, nfacts int) RelationRecord {
	rec := RelationRecord{Relation: r, Stats: core.RelationStats{Generated: nfacts * 2, Iterations: 1, ScoreSweeps: nfacts}}
	for i := 0; i < nfacts; i++ {
		rec.Facts = append(rec.Facts, FactRecord{S: kg.EntityID(i), R: r, O: kg.EntityID(i + 1), Rank: i + 1})
	}
	return rec
}

// writeJournal builds a journal file with the header and records.
func writeJournal(t *testing.T, path string, h Header, recs ...RelationRecord) {
	t.Helper()
	j, err := Create(path, h)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, testHeader(), testRecord(0, 2), testRecord(1, 0), testRecord(2, 5))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, valid := Decode(data)
	if hdr == nil {
		t.Fatal("no header decoded")
	}
	if valid != len(data) {
		t.Fatalf("valid prefix %d, want full file %d", valid, len(data))
	}
	if hdr.Fingerprint != "fp" || hdr.OptionsHash != "oh" || hdr.TotalRelations != 3 {
		t.Fatalf("header round-trip mismatch: %+v", hdr)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	if len(recs[0].Facts) != 2 || len(recs[1].Facts) != 0 || len(recs[2].Facts) != 5 {
		t.Fatalf("fact counts wrong: %d/%d/%d", len(recs[0].Facts), len(recs[1].Facts), len(recs[2].Facts))
	}
	if recs[2].Facts[4] != (FactRecord{S: 4, R: 2, O: 5, Rank: 5}) {
		t.Fatalf("fact round-trip mismatch: %+v", recs[2].Facts[4])
	}
}

func TestDecodeTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, testHeader(), testRecord(0, 3), testRecord(1, 3))
	data, _ := os.ReadFile(path)

	// Chop the file at every length; the decode must never panic and must
	// recover a prefix of the intact decoding.
	for cut := 0; cut <= len(data); cut++ {
		hdr, recs, valid := Decode(data[:cut])
		if valid > cut {
			t.Fatalf("cut=%d: valid prefix %d beyond input", cut, valid)
		}
		if len(recs) > 0 && hdr == nil {
			t.Fatalf("cut=%d: records without header", cut)
		}
		if len(recs) >= 1 && recs[0].Relation != 0 {
			t.Fatalf("cut=%d: first record relation %d", cut, recs[0].Relation)
		}
	}
}

func TestDecodeCorruptAndInterleaved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, testHeader(), testRecord(0, 2))
	good, _ := os.ReadFile(path)

	cases := map[string][]byte{
		"garbage line appended":  append(append([]byte{}, good...), []byte("not json at all\n")...),
		"valid json bad crc":     append(append([]byte{}, good...), []byte(`{"crc":1,"rec":{"relation":{"relation":9,"facts":null,"stats":{"weight_ns":0,"generate_ns":0,"rank_ns":0,"generated":0,"iterations":0,"score_sweeps":0}}}}`+"\n")...),
		"flipped byte in middle": flipByte(good, len(good)/2),
		"binary junk appended":   append(append([]byte{}, good...), 0x00, 0xff, 0x7f, '\n'),
	}
	for name, data := range cases {
		hdr, recs, valid := Decode(data)
		if valid > len(data) {
			t.Errorf("%s: valid prefix beyond input", name)
		}
		// The valid prefix must itself re-decode to the same result.
		hdr2, recs2, valid2 := Decode(data[:valid])
		if valid2 != valid || (hdr == nil) != (hdr2 == nil) || len(recs) != len(recs2) {
			t.Errorf("%s: prefix not stable under re-decode (%d/%d recs, %d/%d bytes)", name, len(recs), len(recs2), valid, valid2)
		}
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0x20
	return out
}

func TestRecoverTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, testHeader(), testRecord(0, 2), testRecord(1, 2))
	data, _ := os.ReadFile(path)
	// Simulate a crash mid-append: half of the final record reached disk.
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, err := Recover(path, testHeader())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != 1 || recs[0].Relation != 0 {
		t.Fatalf("recovered %d records, want just relation 0", len(recs))
	}
	// Appending after recovery must extend the now-clean prefix.
	if err := j.Append(testRecord(2, 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data2, _ := os.ReadFile(path)
	_, recs2, valid := Decode(data2)
	if valid != len(data2) || len(recs2) != 2 || recs2[1].Relation != 2 {
		t.Fatalf("post-recovery journal unclean: %d records, %d/%d valid bytes", len(recs2), valid, len(data2))
	}
}

func TestRecoverRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		want Header
	}{
		{"fingerprint", Header{Version: journalVersion, Fingerprint: "OTHER", OptionsHash: "oh"}},
		{"options", Header{Version: journalVersion, Fingerprint: "fp", OptionsHash: "OTHER"}},
	} {
		path := filepath.Join(dir, tc.name+".wal")
		writeJournal(t, path, testHeader(), testRecord(0, 1))
		_, _, err := Recover(path, tc.want)
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%s: err = %v, want MismatchError", tc.name, err)
		}
		if mm.Field != tc.name {
			t.Errorf("%s: mismatch field %q", tc.name, mm.Field)
		}
		if !bytes.Contains([]byte(err.Error()), []byte("mismatch")) {
			t.Errorf("%s: error not descriptive: %v", tc.name, err)
		}
	}
}

func TestRecoverMissingFileCreatesFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.wal")
	j, recs, err := Recover(path, testHeader())
	if err != nil {
		t.Fatalf("Recover on missing file: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	j.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file not created: %v", err)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeJournal(t, path, testHeader())
	if _, err := Create(path, testHeader()); !errors.Is(err, ErrCheckpointExists) {
		t.Fatalf("err = %v, want ErrCheckpointExists", err)
	}
}

func TestDecodeRejectsDuplicateRelations(t *testing.T) {
	var buf bytes.Buffer
	h := testHeader()
	for _, rec := range []record{{Header: &h}, {Relation: &RelationRecord{Relation: 1}}, {Relation: &RelationRecord{Relation: 1}}} {
		line, err := wal.Frame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	_, recs, _ := Decode(buf.Bytes())
	if len(recs) != 1 {
		t.Fatalf("duplicate relation accepted: %d records", len(recs))
	}
}
