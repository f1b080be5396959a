package kge

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// batchSweepPins are SHA-256 digests of ScoreAllObjectsBatch per model on
// blocks of 9 and 13 subjects — two and three four-query lane groups plus
// leftovers — against 301 entities of width 64 (128 for ComplEx), so the
// sweep crosses tile edges and ends on a ragged 4-row block. Generated at
// c26cda3 on the scalar Go kernels and never regenerated: they hold the
// query-lane kernels to the batch sweep's bits for every model.
var batchSweepPins = map[string]string{
	"transe":   "0dcc537860ff002cd3d04a4badd35bb72bcc3c85a9240883de9a3b2afd799182",
	"distmult": "ffd3c7953f6c9d11c3328e0c6c5cf7e8c768dadfcfcb9a1fda52029d8d25b810",
	"complex":  "ebe589db93188943179d4b4302027f62b913a056b57c49aef800e5ef7d4f9405",
	"rescal":   "4964c3bdd6033124d095fe607603b1a29708ef1b6342fbe3c86a2538034a77e8",
	"hole":     "5e630c9900cb21fbdf4ad09bb3d05f535350132f773da0e4a9bd67df8a05d322",
	"conve":    "0bed8cda2ff67fd532c0bf55fcaec3c3d9f6a945d2d24c7d3a731d4f6294b1d6",
}

func batchSweepDigest(t *testing.T, name string) string {
	t.Helper()
	cfg := Config{NumEntities: 301, NumRelations: 3, Dim: 64, Seed: 5}
	m, err := New(name, cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, p := range m.Params().List() {
		for i := range p.M.Data {
			p.M.Data[i] += float32(rng.NormFloat64()) * 0.1
		}
	}
	h := sha256.New()
	var b [4]byte
	for r := 0; r < cfg.NumRelations; r++ {
		for _, n := range []int{9, 13} {
			ss := make([]kg.EntityID, n)
			for j := range ss {
				ss[j] = kg.EntityID(rng.Intn(cfg.NumEntities))
			}
			out := vecmath.NewMatrix(n, cfg.NumEntities)
			ScoreAllObjectsBatch(m, ss, kg.RelationID(r), out)
			for _, v := range out.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBatchSweepPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("sweep digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, name := range ModelNames() {
		if got := batchSweepDigest(t, name); got != batchSweepPins[name] {
			t.Errorf("%s: batch sweep digest %s, pinned %s", name, got, batchSweepPins[name])
		}
	}
}
