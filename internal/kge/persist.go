package kge

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/fsio"
)

// paramRecord is one parameter table in the canonical wire format.
type paramRecord struct {
	Name       string
	Rows, Cols int
	Data       []float32
}

// snapshot is the gob wire format for a trained model: the constructor
// configuration plus every parameter table's raw data. Loading reconstructs
// the model through New (so geometry derivations rerun) and then overwrites
// the freshly initialized parameters. ParamList is a name-sorted slice of
// records, never a gob map (whose encoding follows map iteration order), so
// Save is a pure function of the weights.
type snapshot struct {
	ModelName string
	Config    snapshotConfig
	ParamList []paramRecord
}

// snapshotConfig is Config on the gob wire. It keeps Norm, TransE's distance
// (0 or 1 for L1, 2 for the squared L2 no model computes any more), because
// gob drops a field its target type lacks without a word: a norm-2 snapshot
// must be refused, not loaded as L1. Save writes it 0.
type snapshotConfig struct {
	NumEntities, NumRelations, Dim        int
	Seed                                  int64
	Norm                                  int
	ConvEHeight, ConvEWidth, ConvEFilters int
}

// checkNorm refuses a checkpoint whose Config records a TransE norm other
// than 0 or 1 (both mean L1). Both formats keep the slot only for this.
func checkNorm(norm int64) error {
	if norm != 0 && norm != 1 {
		return fmt.Errorf("checkpoint records TransE norm %d; only 0 or 1 (L1) is supported", norm)
	}
	return nil
}

// Save serializes a trained model to w. Identical model weights always
// produce identical bytes: parameters are emitted as a name-sorted list of
// records, never as gob maps.
func Save(m Model, w io.Writer) error {
	snap := snapshot{ModelName: m.Name()}
	cfg, err := configOf(m)
	if err != nil {
		return err
	}
	snap.Config = snapshotConfig{
		NumEntities: cfg.NumEntities, NumRelations: cfg.NumRelations, Dim: cfg.Dim, Seed: cfg.Seed,
		ConvEHeight: cfg.ConvEHeight, ConvEWidth: cfg.ConvEWidth, ConvEFilters: cfg.ConvEFilters,
	}
	for _, p := range m.Params().List() {
		data := make([]float32, len(p.M.Data))
		copy(data, p.M.Data)
		snap.ParamList = append(snap.ParamList, paramRecord{
			Name: p.Name, Rows: p.M.Rows, Cols: p.M.Cols, Data: data,
		})
	}
	sort.Slice(snap.ParamList, func(i, j int) bool {
		return snap.ParamList[i].Name < snap.ParamList[j].Name
	})
	return gob.NewEncoder(w).Encode(snap)
}

// Load reconstructs a model previously written by Save.
func Load(r io.Reader) (Model, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("kge: decode snapshot: %w", err)
	}
	if len(snap.ParamList) == 0 {
		// Snapshots from before canonical checkpoints carried Params/Shapes
		// maps instead; gob drops those unknown fields silently, so an empty
		// record list is how such a file shows up here.
		return nil, fmt.Errorf("kge: snapshot of %q has no parameter records: map-format snapshot from before canonical checkpoints; no longer read", snap.ModelName)
	}
	c := snap.Config
	if err := checkNorm(int64(c.Norm)); err != nil {
		return nil, fmt.Errorf("kge: snapshot of %q: %w", snap.ModelName, err)
	}
	m, err := New(snap.ModelName, Config{
		NumEntities: c.NumEntities, NumRelations: c.NumRelations, Dim: c.Dim, Seed: c.Seed,
		ConvEHeight: c.ConvEHeight, ConvEWidth: c.ConvEWidth, ConvEFilters: c.ConvEFilters,
	})
	if err != nil {
		return nil, fmt.Errorf("kge: reconstruct %q: %w", snap.ModelName, err)
	}
	return m, restoreFromRecords(m, snap.ParamList)
}

func restoreFromRecords(m Model, records []paramRecord) error {
	byName := make(map[string]paramRecord, len(records))
	for _, rec := range records {
		byName[rec.Name] = rec
	}
	for _, p := range m.Params().List() {
		rec, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("kge: snapshot missing parameter %q", p.Name)
		}
		if rec.Rows != p.M.Rows || rec.Cols != p.M.Cols {
			return fmt.Errorf("kge: parameter %q shape [%d %d], want [%d %d]",
				p.Name, rec.Rows, rec.Cols, p.M.Rows, p.M.Cols)
		}
		if len(rec.Data) != len(p.M.Data) {
			return fmt.Errorf("kge: parameter %q has %d scalars, want %d",
				p.Name, len(rec.Data), len(p.M.Data))
		}
		copy(p.M.Data, rec.Data)
	}
	return nil
}

// Fingerprint returns the SHA-256 hex digest of a model's canonical
// parameter serialization: the model name followed by every parameter table
// in name order, each contributing its name, shape, and the little-endian
// IEEE-754 bits of its data. Two models fingerprint identically exactly when
// they have the same architecture and bit-identical weights, so the digest
// is the unit of comparison for training-determinism checks.
func Fingerprint(m Model) string {
	h := sha256.New()
	io.WriteString(h, m.Name())
	params := append([]*Param(nil), m.Params().List()...)
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	var hdr [8]byte
	buf := make([]byte, 0, 4096)
	for _, p := range params {
		io.WriteString(h, "\x00")
		io.WriteString(h, p.Name)
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(p.M.Rows))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(p.M.Cols))
		h.Write(hdr[:])
		buf = buf[:0]
		for _, x := range p.M.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SaveFile writes a gob checkpoint to path with the durable-write discipline
// shared by every checkpoint artifact (internal/fsio): unique temp file, file
// fsync, atomic rename, directory fsync. Commands write flat (SaveFlatFile);
// only bench/kgbench and tests still write gob.
func SaveFile(m Model, path string) error {
	return fsio.WriteAtomic(path, func(f *os.File) error { return Save(m, f) })
}

// LoadFile reads a gob checkpoint from path. Commands read through LoadAuto,
// whose gob branch is the migration path; only bench/kgbench calls LoadFile.
func LoadFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// configOf recovers the constructor Config from a live model. A mapped
// model snapshots like any other: skipInit is unexported and zero-valued on
// reconstruction, so it never leaks into a save.
func configOf(m Model) (Config, error) {
	if c, ok := m.derived().QueryModel.(interface{ config() Config }); ok {
		return c.config(), nil
	}
	return Config{}, fmt.Errorf("kge: cannot snapshot model type %T", m)
}
