package vecmath

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// kernelPinsOneQuery are SHA-256 digests of MatMat, MatNegL1 and MatVec on
// blocks of one to three queries — the sweeps no four-query lane group
// takes — one per column count, with NaNs of distinct payloads in both the
// entity rows and the queries. When both operands of a multiply or an add
// are NaN, the first operand's payload survives, so these digests hold each
// (row, query) pair's operand order, not only its summation order. They
// were generated on the scalar Go loops, before the one-query sweep had a
// kernel, and are never regenerated.
var kernelPinsOneQuery = map[int]string{
	1:   "492c7cc744f6abf79796810315a8165aebbf536a604e1e3d8cdc1ef17623abcf",
	2:   "d8816d4317ee498e984b2c1c6aea1593ac70186d6509978387bffd67d6683b35",
	3:   "ad59d9b915e572cb021aa0078404e1048fae54920396c683b1f8ff0e7873e7a2",
	4:   "b6094db7fc6e1a958c883ad293ee20d9f4ec9034168c3695ec14aff4ef982997",
	5:   "56d6a8ea8c2c0d583d82db11767d10e5d09d6e507b9c399317b491092fab3e3d",
	16:  "8cb87565c4a803b1c913b82a4ec9656daf7f48b7b50d007d1c32a099c4d22687",
	63:  "d3813f9563adad38297f8c50b4d2e8ec5fd1cf538c67af194981847490000dc5",
	64:  "ae824f2e214c0cd2ebc7ee67307c439259704b9fad0b975a09c02ecc9425753d",
	65:  "fc0dc14dc5f2aae4a3c18b506fbac42c2bd563f42dc2bfb9ceef5ab9dc15208d",
	128: "63a07719c38cd2420bccb1339382ce6819fc320ff6d597cede6a50be48dc7121",
}

// sweepNaNs are the NaNs of axpySpecials: four payloads, one signalling.
var sweepNaNs = axpySpecials[:4]

// oneQueryPinDigest sweeps matrices of cols columns whose row counts sit on
// and around the 4-row block and the tile edges with one, two and three
// queries. A third of the rows and half of the queries carry one or two
// NaNs; elsewhere an element is one of specialFloats one time in 16.
func oneQueryPinDigest(cols int) string {
	rng := rand.New(rand.NewSource(int64(4000 + cols)))
	h := sha256.New()
	var b [4]byte
	put := func(vs []float32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	salt := func(m *Matrix, nanRate int) {
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for k := range row {
				if rng.Intn(16) == 0 {
					row[k] = specialFloats[rng.Intn(len(specialFloats))]
				}
			}
			if rng.Intn(nanRate) == 0 {
				for n := 1 + rng.Intn(2); n > 0; n-- {
					row[rng.Intn(cols)] = sweepNaNs[rng.Intn(len(sweepNaNs))]
				}
			}
		}
	}
	tile := matMatTileRows(cols)
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, tile - 1, tile, tile + 1, tile + 3, tile + 4, 2*tile + 5} {
		m := randomMatrix(rng, rows, cols)
		salt(m, 3)
		for nq := 1; nq <= 3; nq++ {
			q := randomMatrix(rng, nq, cols)
			salt(q, 2)
			put(MatMat(NewMatrix(nq, rows), m, q).Data)
			put(MatNegL1(NewMatrix(nq, rows), m, q).Data)
			for j := 0; j < nq; j++ {
				put(MatVec(make([]float32, rows), m, q.Row(j)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOneQueryKernelsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	if raceBuild {
		t.Skip("race instrumentation compiles the Go loops with some operands the other way round, which changes NaN payloads")
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 16, 63, 64, 65, 128} {
		if got := oneQueryPinDigest(cols); got != kernelPinsOneQuery[cols] {
			t.Errorf("cols=%d: one-query kernel digest %s, pinned %s", cols, got, kernelPinsOneQuery[cols])
		}
	}
}
