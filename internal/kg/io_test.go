package kg

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadTSVBasic(t *testing.T) {
	input := "a\tlikes\tb\n# comment\n\nb\tlikes\tc\na\tlikes\tb\n"
	g := NewGraph()
	n, err := ReadTSV(g, strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if n != 3 {
		t.Errorf("read %d lines, want 3", n)
	}
	if g.Len() != 2 {
		t.Errorf("graph has %d triples, want 2 (dedup)", g.Len())
	}
}

func TestReadTSVMalformed(t *testing.T) {
	g := NewGraph()
	_, err := ReadTSV(g, strings.NewReader("only\ttwo\n"))
	if err == nil {
		t.Fatal("expected error for 2-field line")
	}
	if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %q does not identify the line", err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	g := NewGraph()
	g.AddNamed("zeus", "father_of", "ares")
	g.AddNamed("hera", "mother_of", "ares")
	g.AddNamed("zeus", "married_to", "hera")

	var buf bytes.Buffer
	if err := WriteTSV(g, &buf); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	g2 := NewGraph()
	if _, err := ReadTSV(g2, &buf); err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("roundtrip triples = %d, want %d", g2.Len(), g.Len())
	}
	// Same facts by name (IDs may differ).
	for _, tr := range g.Triples() {
		s := g.Entities.Name(int32(tr.S))
		r := g.Relations.Name(int32(tr.R))
		o := g.Entities.Name(int32(tr.O))
		s2, ok1 := g2.Entities.Lookup(s)
		r2, ok2 := g2.Relations.Lookup(r)
		o2, ok3 := g2.Entities.Lookup(o)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("vocabulary lost for %s %s %s", s, r, o)
		}
		if !g2.Contains(Triple{S: EntityID(s2), R: RelationID(r2), O: EntityID(o2)}) {
			t.Errorf("fact (%s, %s, %s) lost in roundtrip", s, r, o)
		}
	}
}

func TestSaveLoadDataset(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 50; i++ {
		g.AddNamed(string(rune('a'+i%20)), "rel", string(rune('A'+(i*7)%20)))
	}
	ds, err := Split("test-ds", g, SplitOptions{ValidFrac: 0.1, TestFrac: 0.1, Seed: 3})
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := SaveDataset(ds, dir); err != nil {
		t.Fatalf("SaveDataset: %v", err)
	}
	back, err := LoadDataset("test-ds", dir)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if back.Train.Len() != ds.Train.Len() || back.Valid.Len() != ds.Valid.Len() || back.Test.Len() != ds.Test.Len() {
		t.Errorf("split sizes changed: got %d/%d/%d, want %d/%d/%d",
			back.Train.Len(), back.Valid.Len(), back.Test.Len(),
			ds.Train.Len(), ds.Valid.Len(), ds.Test.Len())
	}
	if back.Train.Entities != back.Valid.Entities || back.Train.Entities != back.Test.Entities {
		t.Error("loaded splits do not share dictionaries")
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := LoadDataset("x", t.TempDir()); err == nil {
		t.Fatal("expected error for missing files")
	}
}
