package kg

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLibKGERoundtrip(t *testing.T) {
	g := randomGraph(21, 40, 5, 500)
	ds, err := Split("lib", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "libkge")
	if err := SaveLibKGEDataset(ds, dir); err != nil {
		t.Fatalf("SaveLibKGEDataset: %v", err)
	}
	for _, f := range []string{"entity_ids.del", "relation_ids.del", "train.del", "valid.del", "test.del"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	back, err := LoadLibKGEDataset("lib", dir)
	if err != nil {
		t.Fatalf("LoadLibKGEDataset: %v", err)
	}
	if back.Train.Len() != ds.Train.Len() || back.Valid.Len() != ds.Valid.Len() || back.Test.Len() != ds.Test.Len() {
		t.Fatalf("sizes changed: %d/%d/%d vs %d/%d/%d",
			back.Train.Len(), back.Valid.Len(), back.Test.Len(),
			ds.Train.Len(), ds.Valid.Len(), ds.Test.Len())
	}
	// Names are preserved through the ID files: every original fact must be
	// recoverable by name.
	for _, tr := range ds.Train.Triples() {
		s := ds.Train.Entities.Name(int32(tr.S))
		r := ds.Train.Relations.Name(int32(tr.R))
		o := ds.Train.Entities.Name(int32(tr.O))
		sid, _ := back.Train.Entities.Lookup(s)
		rid, _ := back.Train.Relations.Lookup(r)
		oid, _ := back.Train.Entities.Lookup(o)
		if !back.Train.Contains(Triple{S: EntityID(sid), R: RelationID(rid), O: EntityID(oid)}) {
			t.Fatalf("fact (%s,%s,%s) lost in LibKGE roundtrip", s, r, o)
		}
	}
}

func writeLibKGEFixture(t *testing.T, entityIDs, relationIDs, train string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"entity_ids.del":   entityIDs,
		"relation_ids.del": relationIDs,
		"train.del":        train,
		"valid.del":        "",
		"test.del":         "",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadLibKGEValid(t *testing.T) {
	dir := writeLibKGEFixture(t, "0\talice\n1\tbob\n", "0\tknows\n", "0\t0\t1\n")
	ds, err := LoadLibKGEDataset("x", dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if ds.Train.Len() != 1 {
		t.Errorf("train = %d, want 1", ds.Train.Len())
	}
	if name := ds.Train.Entities.Name(0); name != "alice" {
		t.Errorf("entity 0 = %q", name)
	}
}

func TestLoadLibKGEErrors(t *testing.T) {
	cases := []struct {
		name                string
		ents, rels, triples string
	}{
		{"non-dense ids", "0\talice\n2\tbob\n", "0\tr\n", ""},
		{"malformed id line", "zero\talice\n", "0\tr\n", ""},
		{"missing tab", "0 alice\n", "0\tr\n", ""},
		{"entity out of range", "0\talice\n", "0\tr\n", "0\t0\t5\n"},
		{"relation out of range", "0\talice\n1\tbob\n", "0\tr\n", "0\t3\t1\n"},
		{"bad triple field", "0\talice\n1\tbob\n", "0\tr\n", "0\tx\t1\n"},
		{"two fields", "0\talice\n1\tbob\n", "0\tr\n", "0\t1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeLibKGEFixture(t, tc.ents, tc.rels, tc.triples)
			if _, err := LoadLibKGEDataset("x", dir); err == nil {
				t.Errorf("accepted %s", tc.name)
			}
		})
	}
}

func TestLoadLibKGEMissingDir(t *testing.T) {
	if _, err := LoadLibKGEDataset("x", filepath.Join(t.TempDir(), "none")); err == nil {
		t.Fatal("accepted missing directory")
	}
}
