package kg

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTripleString(t *testing.T) {
	if got := (Triple{S: 1, R: 2, O: 3}).String(); got != "(1, 2, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestSideString(t *testing.T) {
	if SubjectSide.String() != "subject" || ObjectSide.String() != "object" {
		t.Error("side names wrong")
	}
	if got := Side(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown side String = %q", got)
	}
}

func TestFormatTriple(t *testing.T) {
	g := NewGraph()
	tr := g.AddNamed("zeus", "father_of", "ares")
	if got := g.FormatTriple(tr); got != "(zeus, father_of, ares)" {
		t.Errorf("FormatTriple = %q", got)
	}
}

func TestGraphVocabularySizes(t *testing.T) {
	g := NewGraph()
	g.AddNamed("a", "r", "b")
	if g.NumEntities() != 2 || g.NumRelations() != 1 {
		t.Errorf("NumEntities/NumRelations = %d/%d", g.NumEntities(), g.NumRelations())
	}
}

func TestDictNames(t *testing.T) {
	d := NewDict()
	d.Intern("zebra")
	d.Intern("apple")
	names := d.Names()
	if len(names) != 2 || names[0] != "zebra" || names[1] != "apple" {
		t.Errorf("Names = %v (insertion order expected)", names)
	}
	// Names returns a copy: mutating it must not corrupt the dict.
	names[0] = "corrupted"
	if d.Name(0) != "zebra" {
		t.Error("Names leaked internal storage")
	}
}

func TestMetadataString(t *testing.T) {
	m := Metadata{Name: "x", Train: 1, Validation: 2, Test: 3, Entities: 4, Relations: 5}
	s := m.String()
	for _, want := range []string{"x", "train=1", "valid=2", "test=3", "entities=4", "relations=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("Metadata.String() = %q missing %q", s, want)
		}
	}
}

func TestSaveDatasetFailsOnUnwritablePath(t *testing.T) {
	ds := &Dataset{Name: "x", Train: NewGraph(), Valid: NewGraph(), Test: NewGraph()}
	// A file where a directory is expected.
	path := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveDataset(ds, filepath.Join(path, "sub")); err == nil {
		t.Error("accepted unwritable directory")
	}
}
