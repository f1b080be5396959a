package kge

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kg"
)

// flatEntitiesOffset is where a flat header's NumEntities sits when the
// model name is "distmult": magic, version, header size, then the name.
const flatEntitiesOffset = len(flatMagic) + 4 + 4 + 4 + len("distmult")

// resealFlat rewrites both CRCs of a flat checkpoint in place — the header's
// over the bytes before it, if the header size field points inside the
// file, and the file's over the rest — so an edit to the header's meaning
// reaches the loader instead of the checksum test.
func resealFlat(b []byte) {
	if len(b) < 4 {
		return
	}
	if len(b) >= 16 {
		if h := int(binary.LittleEndian.Uint32(b[12:16])); h >= 4 && h <= len(b)-4 {
			binary.LittleEndian.PutUint32(b[h-4:], crc32.ChecksumIEEE(b[:h-4]))
		}
	}
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
}

// smallDistMult is the 292-byte flat checkpoint of a DistMult model with 4
// entities, 2 relations and Dim 4.
func smallDistMult(t testing.TB) (Model, []byte) {
	t.Helper()
	m, err := New("distmult", Config{NumEntities: 4, NumRelations: 2, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveFlat(m, &buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

// allocatedBy returns the bytes the heap allocated while f ran, the least
// of three runs. The count is process-wide, so another goroutine (the fuzz
// engine's, say) can only add to it: for an f that allocates the same every
// time, the minimum still bounds f.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestCraftedEntityCountRefusedBeforeAllocation: a valid DistMult
// checkpoint whose header claims 2²⁶ entities, both CRCs resealed, asks the
// loader for a 1 GiB entity table. Each loader must refuse it by the
// entity table's shape, having allocated no more than a small multiple of
// the file: the flat one through OpenMapped, the path every command takes,
// and the gob one on a snapshot whose records are the model's own.
func TestCraftedEntityCountRefusedBeforeAllocation(t *testing.T) {
	m, flat := smallDistMult(t)
	if len(flat) != 292 {
		t.Fatalf("the small DistMult checkpoint is %d bytes, want 292", len(flat))
	}
	binary.LittleEndian.PutUint64(flat[flatEntitiesOffset:], 1<<26)
	resealFlat(flat)
	path := filepath.Join(t.TempDir(), "crafted.kgf")
	if err := os.WriteFile(path, flat, 0o644); err != nil {
		t.Fatal(err)
	}

	snap := snapshot{ModelName: "distmult", Config: snapshotConfig{NumEntities: 1 << 26, NumRelations: 2, Dim: 4}}
	for _, p := range m.Params().List() {
		snap.ParamList = append(snap.ParamList, paramRecord{Name: p.Name, Rows: p.M.Rows, Cols: p.M.Cols, Data: p.M.Data})
	}
	var gobBytes bytes.Buffer
	if err := gob.NewEncoder(&gobBytes).Encode(snap); err != nil {
		t.Fatal(err)
	}

	const want = `parameter "entity" shape [4 4], want [67108864 4]`
	for _, tc := range []struct {
		name string
		size int
		load func() error
	}{
		{"flat", len(flat), func() error {
			mm, err := OpenMapped(path)
			if mm != nil {
				mm.Close()
			}
			return err
		}},
		{"gob", gobBytes.Len(), func() error {
			_, err := Load(bytes.NewReader(gobBytes.Bytes()))
			return err
		}},
	} {
		var err error
		alloc := allocatedBy(func() { err = tc.load() })
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: load error %v, want one naming %s", tc.name, err, want)
		}
		if limit := uint64(64 * tc.size); alloc > limit {
			t.Errorf("%s: refusing a %d-byte checkpoint allocated %d bytes, limit %d", tc.name, tc.size, alloc, limit)
		}
	}
}

// FuzzLoadFlat mutates valid flat checkpoints of all six models and
// reseals both CRCs, so the mutations reach the header's meaning: counts,
// shapes, offsets, the config and the model name. parseFlat must return a
// model that scores, or an error — never panic — and allocate no more than
// a small multiple of the file's size.
func FuzzLoadFlat(f *testing.F) {
	for _, name := range ModelNames() {
		cfg := Config{NumEntities: 5, NumRelations: 2, Dim: 4, Seed: 1}
		if name == "conve" {
			cfg.Dim = 6 // a 2×3 image, stacked 4×3
		}
		m, err := New(name, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveFlat(m, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		resealFlat(data)
		var (
			m   Model
			err error
		)
		alloc := allocatedBy(func() { m, _, err = parseFlat(data) })
		if limit := uint64(64*len(data) + 4096); alloc > limit {
			t.Fatalf("parseFlat of %d bytes allocated %d, limit %d (err %v)", len(data), alloc, limit, err)
		}
		if err == nil {
			m.Score(kg.Triple{})
			Fingerprint(m)
		}
	})
}
