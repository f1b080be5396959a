package kge

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"
)

// perturb nudges every parameter so tests exercise real weights, not just
// the seeded initialization.
func perturb(m Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] += float32(rng.NormFloat64()) * 0.01
		}
	}
}

func TestSaveDeterministicBytes(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := New(name, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		perturb(m, 11)
		var a, b bytes.Buffer
		if err := Save(m, &a); err != nil {
			t.Fatalf("Save(%s) #1: %v", name, err)
		}
		if err := Save(m, &b); err != nil {
			t.Fatalf("Save(%s) #2: %v", name, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: repeated Save produced different bytes (%d vs %d)", name, a.Len(), b.Len())
		}
	}
}

// legacySnapshot mirrors the pre-canonical wire format, where parameters
// traveled as gob maps. Load no longer reads it and must say so.
type legacySnapshot struct {
	ModelName string
	Config    Config
	Params    map[string][]float32
	Shapes    map[string][2]int
}

func TestLoadRejectsLegacyMapSnapshot(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := New(name, testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := configOf(m)
		if err != nil {
			t.Fatal(err)
		}
		legacy := legacySnapshot{
			ModelName: name,
			Config:    cfg,
			Params:    make(map[string][]float32),
			Shapes:    make(map[string][2]int),
		}
		for _, p := range m.Params().List() {
			legacy.Params[p.Name] = append([]float32(nil), p.M.Data...)
			legacy.Shapes[p.Name] = [2]int{p.M.Rows, p.M.Cols}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
			t.Fatalf("encode legacy %s: %v", name, err)
		}
		back, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "map-format snapshot") {
			t.Errorf("%s: Load(legacy) error = %v, want one naming the map-format snapshot", name, err)
		}
		if back != nil {
			t.Errorf("%s: Load(legacy) returned a model beside its error", name)
		}
	}
}

// gobFixtureFingerprint pins testdata/distmult.kge, a gob checkpoint written
// once by SaveFile (DistMult, 23 entities, 5 relations, dim 12). The file is
// never regenerated: it stands for every gob checkpoint already on disk, which
// LoadFile, kgconvert's reader, must keep reading with the same weights.
const gobFixtureFingerprint = "decd60db5e6b022e4ead7c00cae71c7877025eb63cc85c3245e3f6406d4223c9"

func TestLoadFileReadsGobFixture(t *testing.T) {
	m, err := LoadFile("testdata/distmult.kge")
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(m); got != gobFixtureFingerprint {
		t.Errorf("gob fixture fingerprint %s, want %s", got, gobFixtureFingerprint)
	}
}

func TestFingerprint(t *testing.T) {
	m, err := New("distmult", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	perturb(m, 5)
	base := Fingerprint(m)
	if again := Fingerprint(m); again != base {
		t.Errorf("fingerprint not stable: %s vs %s", base, again)
	}

	// Save/Load must preserve the digest exactly.
	var buf bytes.Buffer
	if err := Save(m, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(back); got != base {
		t.Errorf("roundtrip changed fingerprint: %s vs %s", got, base)
	}

	// A single-bit weight change must change the digest.
	p := m.Params().List()[0]
	p.M.Data[0] += 1e-6
	if got := Fingerprint(m); got == base {
		t.Error("fingerprint unchanged after weight modification")
	}

	// Same weights in a different architecture must not collide.
	other, err := New("transe", testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(other) == base {
		t.Error("different models share a fingerprint")
	}
}
