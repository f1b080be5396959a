package mutate

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/kg"
	"repro/internal/wal"
)

// fuzzGraph builds a tiny fixed graph for exercising Apply on decoded
// batches; names e0..e3 and r0..r1 are interned so some fuzzed batches
// validate and actually apply.
func fuzzGraph() *kg.Graph {
	g := kg.NewGraph()
	g.AddNamed("e0", "r0", "e1")
	g.AddNamed("e1", "r0", "e2")
	g.AddNamed("e2", "r1", "e3")
	g.AddNamed("e3", "r1", "e0")
	g.BuildIndexes()
	return g
}

// FuzzMutationDecode throws arbitrary bytes at both mutation decoders: the
// /mutate request body (JSON into Batch, then a full Apply against a fresh
// state) and the mutation-log decoder. The log is whatever a crash left on
// disk and the request body is whatever a client sent, so the invariants are
// absolute: never panic, reject without mutating state, never return a batch
// without a header or out of sequence, and return exactly what re-decoding
// the claimed prefix returns. The framing's own invariants (prefix within the
// input, stable, never extended by garbage) are wal.FuzzScan's.
func FuzzMutationDecode(f *testing.F) {
	// Seed corpus: a healthy log, truncations, corruptions, and plain
	// request bodies.
	var healthy bytes.Buffer
	for _, rec := range []logRecord{
		{Header: &LogHeader{Version: logVersion, Dataset: "tiny"}},
		{Batch: &Batch{Seq: 1, Source: "s", Ops: []Op{{Kind: OpAdd, S: "e0", R: "r1", O: "e2"}}}},
		{Batch: &Batch{Seq: 2, Ops: []Op{{Kind: OpDelete, S: "e0", R: "r0", O: "e1"}}}},
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
	corrupted := append([]byte{}, hb...)
	corrupted[len(corrupted)/3] ^= 0x20
	f.Add(corrupted)
	f.Add([]byte(`{"seq":1,"ops":[{"op":"add","s":"e0","r":"r0","o":"e3"}]}`))
	f.Add([]byte(`{"seq":1,"ops":[{"op":"upsert","s":"e0","r":"r0","o":"e3"}]}`))
	f.Add([]byte(`{"seq":9,"ops":[]}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Request-body path: decode, then apply to a fresh state. A batch
		// that fails validation must leave the graph untouched.
		var b Batch
		if err := json.Unmarshal(data, &b); err == nil {
			g := fuzzGraph()
			before := g.Len()
			st := NewState(g, nil, nil)
			if ap, err := st.Apply(b); err != nil {
				if g.Len() != before || st.Seq() != 0 {
					t.Fatalf("rejected batch mutated state: len %d->%d seq %d", before, g.Len(), st.Seq())
				}
			} else if ap.Seq != b.Seq || st.Seq() != b.Seq {
				t.Fatalf("applied batch seq mismatch: %d vs %d", ap.Seq, st.Seq())
			}
		}

		// Log path: what the decoder adds to the framing.
		hdr, batches, valid := DecodeLog(data)
		if hdr == nil && len(batches) > 0 {
			t.Fatal("batches without a header")
		}
		for i, b := range batches {
			if b.Seq != int64(i)+1 {
				t.Fatalf("batch %d has seq %d, prefix not contiguous", i, b.Seq)
			}
		}
		hdr2, batches2, _ := DecodeLog(data[:valid])
		if len(batches2) != len(batches) || (hdr == nil) != (hdr2 == nil) {
			t.Fatalf("prefix unstable: %d then %d batches", len(batches), len(batches2))
		}
		if hdr != nil && *hdr != *hdr2 {
			t.Fatalf("prefix unstable: header %+v then %+v", hdr, hdr2)
		}
	})
}
