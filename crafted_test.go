package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/kg"
	"repro/internal/kge"
	"repro/internal/synth"
)

// TestCraftedCheckpointRefusedInChild: a valid 292-byte DistMult flat
// checkpoint whose header claims 2⁴⁰ entities, both CRCs resealed. A loader
// that built the 16 TiB table the header names would die of the runtime's
// out-of-memory fatal error, which no recover catches, so this runs a real
// kgeval: it must exit 1 with the loader's error naming the entity table's
// shape.
func TestCraftedCheckpointRefusedInChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kgeval")
	}
	bin := buildCmdOrSkip(t, "kgeval")
	ds, err := synth.Generate(synth.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "ds")
	if err := kg.SaveDataset(ds, dataDir); err != nil {
		t.Fatal(err)
	}
	m, err := kge.New("distmult", kge.Config{NumEntities: 4, NumRelations: 2, Dim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kge.SaveFlat(m, &buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// NumEntities follows the magic, the version, the header size and the
	// length-prefixed name; the header's CRC ends the header, the file's
	// the file.
	binary.LittleEndian.PutUint64(b[8+4+4+4+len("distmult"):], 1<<40)
	h := int(binary.LittleEndian.Uint32(b[12:16]))
	binary.LittleEndian.PutUint32(b[h-4:], crc32.ChecksumIEEE(b[:h-4]))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	modelPath := filepath.Join(dir, "crafted.kgf")
	if err := os.WriteFile(modelPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	p := startProc(t, filepath.Join(dir, "kgeval.log"), bin, "-data", dataDir, "-model", modelPath)
	err = p.Wait(time.Minute)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("kgeval on the crafted checkpoint: %v, want exit status 1; log:\n%s", err, p.Log())
	}
	if want := `parameter "entity" shape [4 4], want [1099511627776 4]`; !strings.Contains(p.Log(), want) {
		t.Errorf("kgeval's log does not name the shape %s:\n%s", want, p.Log())
	}
}
