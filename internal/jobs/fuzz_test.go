package jobs

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kg"
	"repro/internal/wal"
)

// FuzzJournalDecode throws arbitrary bytes at the journal decoder. The resume
// path feeds Decode whatever a crash left on disk, so the invariants are
// absolute: never panic, never return a record without a header or a relation
// twice, and return exactly what re-decoding the claimed prefix returns. The
// framing's own invariants (prefix within the input, stable, never extended
// by garbage) are wal.FuzzScan's.
func FuzzJournalDecode(f *testing.F) {
	// Seed corpus: a healthy journal, truncations of it, corruptions, and
	// interleaved garbage.
	h := Header{Version: journalVersion, Fingerprint: "fp", OptionsHash: "oh", Strategy: "s", TotalRelations: 2}
	var healthy bytes.Buffer
	for _, rec := range []record{
		{Header: &h},
		{Relation: &RelationRecord{Relation: 0, Facts: []FactRecord{{S: 1, R: 0, O: 2, Rank: 3}}, Stats: core.RelationStats{Generated: 4, ScoreSweeps: 1}}},
		{Relation: &RelationRecord{Relation: 1, Stats: core.RelationStats{Iterations: 5}}},
	} {
		line, err := wal.Frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		healthy.Write(line)
	}
	hb := healthy.Bytes()
	f.Add(hb)
	f.Add(hb[:len(hb)/2])
	f.Add(hb[:len(hb)-1])
	f.Add(append(append([]byte{}, hb...), []byte("{\"crc\":0,\"rec\":{}}\n")...))
	f.Add(append(append([]byte{}, hb...), 0x00, 0xff, '\n'))
	f.Add(flipByte(hb, len(hb)/3))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{}"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, valid := Decode(data)
		if hdr == nil && len(recs) > 0 {
			t.Fatal("relation records without a header")
		}
		seen := make(map[kg.RelationID]bool, len(recs))
		for _, rec := range recs {
			if seen[rec.Relation] {
				t.Fatalf("duplicate relation %d survived decode", rec.Relation)
			}
			seen[rec.Relation] = true
		}

		// Re-decoding the claimed prefix must reproduce the result exactly.
		hdr2, recs2, _ := Decode(data[:valid])
		if (hdr == nil) != (hdr2 == nil) {
			t.Fatal("prefix unstable: header appeared/disappeared")
		}
		if hdr != nil && *hdr != *hdr2 {
			t.Fatalf("prefix unstable: header %+v then %+v", hdr, hdr2)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("prefix unstable: %d then %d records", len(recs), len(recs2))
		}
	})
}
