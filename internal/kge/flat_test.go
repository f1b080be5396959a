package kge

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flatTestConfig returns a small but non-degenerate config for name.
func flatTestConfig(name string) Config {
	cfg := Config{NumEntities: 23, NumRelations: 5, Dim: 12, Seed: 9}
	if name == "conve" {
		cfg.Dim = 12 // 3×4 reshape, exercises the geometry fields
	}
	return cfg
}

// scrambleWeights makes the freshly initialized weights distinguishable from
// any re-initialization, so a loader that silently re-inits instead of
// restoring would change the fingerprint.
func scrambleWeights(m Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] = float32(rng.NormFloat64())
		}
	}
}

// TestFlatRoundTripFingerprint is the core contract of the flat format:
// for every model the paper defines, gob-save → load, flat-save → mmap-open,
// and the original in-memory model all fingerprint identically.
func TestFlatRoundTripFingerprint(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			m, err := New(name, flatTestConfig(name))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			scrambleWeights(m, 42)
			want := Fingerprint(m)

			dir := t.TempDir()
			gobPath := filepath.Join(dir, "m.kge")
			flatPath := filepath.Join(dir, "m.kgf")
			if err := SaveFile(m, gobPath); err != nil {
				t.Fatalf("SaveFile: %v", err)
			}
			if err := SaveFlatFile(m, flatPath); err != nil {
				t.Fatalf("SaveFlatFile: %v", err)
			}

			fromGob, err := LoadFile(gobPath)
			if err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			if got := Fingerprint(fromGob); got != want {
				t.Errorf("gob round-trip fingerprint %s, want %s", got, want)
			}

			mm, err := OpenMapped(flatPath)
			if err != nil {
				t.Fatalf("OpenMapped: %v", err)
			}
			defer mm.Close()
			if got := Fingerprint(mm); got != want {
				t.Errorf("flat round-trip fingerprint %s, want %s", got, want)
			}
			if mm.Name() != m.Name() || mm.Dim() != m.Dim() ||
				mm.NumEntities() != m.NumEntities() || mm.NumRelations() != m.NumRelations() {
				t.Errorf("mapped model geometry differs from original")
			}

			// Scoring must agree bit-for-bit with the original: the mapped
			// tables alias the exact bytes SaveFlat wrote.
			out1 := m.ScoreAllObjects(1, 0, make([]float32, m.NumEntities()))
			out2 := mm.ScoreAllObjects(1, 0, make([]float32, mm.NumEntities()))
			for i := range out1 {
				if out1[i] != out2[i] {
					t.Fatalf("score[%d] %v (heap) != %v (mapped)", i, out1[i], out2[i])
				}
			}
		})
	}
}

// TestFlatSaveDeterministic pins the pure-function property: two saves of
// the same model are byte-identical.
func TestFlatSaveDeterministic(t *testing.T) {
	m, err := New("distmult", flatTestConfig("distmult"))
	if err != nil {
		t.Fatal(err)
	}
	scrambleWeights(m, 7)
	var a, b bytes.Buffer
	if err := SaveFlat(m, &a); err != nil {
		t.Fatal(err)
	}
	if err := SaveFlat(m, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two SaveFlat calls produced different bytes")
	}
}

// TestFlatTruncationNeverPanics simulates a crash mid-write: every prefix
// length of a valid flat checkpoint (sampled densely in the header, sparsely
// through the data) must produce a clean error — never a panic, never a
// silently wrong model.
func TestFlatTruncationNeverPanics(t *testing.T) {
	m, err := New("complex", flatTestConfig("complex"))
	if err != nil {
		t.Fatal(err)
	}
	scrambleWeights(m, 3)
	var buf bytes.Buffer
	if err := SaveFlat(m, &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	dir := t.TempDir()
	path := filepath.Join(dir, "torn.kgf")
	cuts := []int{}
	for n := 0; n < 256 && n < len(full); n++ {
		cuts = append(cuts, n)
	}
	for n := 256; n < len(full); n += 97 {
		cuts = append(cuts, n)
	}
	cuts = append(cuts, len(full)-1)
	for _, n := range cuts {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := OpenMapped(path)
		if err == nil {
			mm.Close()
			t.Fatalf("OpenMapped accepted a checkpoint truncated to %d of %d bytes", n, len(full))
		}
	}
}

// TestFlatBitflipDetected flips single bytes in the header and in the data
// region: the CRCs must reject both.
func TestFlatBitflipDetected(t *testing.T) {
	m, err := New("transe", flatTestConfig("transe"))
	if err != nil {
		t.Fatal(err)
	}
	scrambleWeights(m, 5)
	var buf bytes.Buffer
	if err := SaveFlat(m, &buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	path := filepath.Join(t.TempDir(), "flip.kgf")
	for _, pos := range []int{12, 40, len(full) / 2, len(full) - 8} {
		corrupt := append([]byte(nil), full...)
		corrupt[pos] ^= 0x40
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if mm, err := OpenMapped(path); err == nil {
			mm.Close()
			t.Fatalf("OpenMapped accepted a checkpoint with byte %d flipped", pos)
		}
	}
}

// TestOpenMappedRefusesGob: the same weights saved in both containers open
// only as flat, where the *Mapped carries the weights and the mapping; the
// gob file is refused with an error that names kgconvert, its migration.
func TestOpenMappedRefusesGob(t *testing.T) {
	m, err := New("hole", flatTestConfig("hole"))
	if err != nil {
		t.Fatal(err)
	}
	scrambleWeights(m, 11)
	want := Fingerprint(m)
	dir := t.TempDir()

	gobPath := filepath.Join(dir, "m.kge")
	flatPath := filepath.Join(dir, "m.kgf")
	if err := SaveFile(m, gobPath); err != nil {
		t.Fatal(err)
	}
	if err := SaveFlatFile(m, flatPath); err != nil {
		t.Fatal(err)
	}

	if mm, err := OpenMapped(gobPath); err == nil || !strings.Contains(err.Error(), "kgconvert") {
		if mm != nil {
			mm.Close()
		}
		t.Errorf("OpenMapped(gob): err = %v, want one naming kgconvert", err)
	}

	mm, err := OpenMapped(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if got := Fingerprint(mm); got != want {
		t.Errorf("flat fingerprint %s, want %s", got, want)
	}
	if mm.MappedBytes() == 0 {
		t.Errorf("flat load reports no mapped bytes on a little-endian host")
	}
	// The embedded model is the derived one itself; Mapped only adds the pages.
	if _, ok := mm.Trainable.(*Derived); !ok {
		t.Errorf("OpenMapped embeds %T, not the *Derived", mm.Trainable)
	}
}

// TestMappedCloseIdempotent double-closes a mapping.
func TestMappedCloseIdempotent(t *testing.T) {
	m, err := New("distmult", flatTestConfig("distmult"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.kgf")
	if err := SaveFlatFile(m, path); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := mm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkColdStartGob and BenchmarkColdStartFlat measure the serving
// cold-start cost the flat format exists to kill: time from "checkpoint on
// disk" to "scorable model". Results are recorded in EXPERIMENTS.md.
func benchmarkColdStart(b *testing.B, save func(Model, string) error, load func(string) error) {
	m, err := New("distmult", Config{NumEntities: 20000, NumRelations: 50, Dim: 128, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	scrambleWeights(m, 1)
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	if err := save(m, path); err != nil {
		b.Fatal(err)
	}
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := load(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdStartGob(b *testing.B) {
	benchmarkColdStart(b, SaveFile, func(path string) error {
		_, err := LoadFile(path)
		return err
	})
}

func BenchmarkColdStartFlat(b *testing.B) {
	benchmarkColdStart(b, SaveFlatFile, func(path string) error {
		mm, err := OpenMapped(path)
		if err != nil {
			return err
		}
		return mm.Close()
	})
}
