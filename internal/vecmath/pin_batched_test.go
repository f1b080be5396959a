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

// kernelPinsBatched are SHA-256 digests of MatMat and of the L1 sweep on
// query blocks of four or more rows — the shapes kernelPins' three-query
// blocks never reach — one per column count, generated at c26cda3 on the
// scalar Go kernels, before the query-lane kernels (sweep_amd64.s) existed.
// Like kernelPins they are never regenerated: a mismatch means a kernel
// changed a (row, query) pair's accumulation order.
var kernelPinsBatched = map[int]string{
	1:   "3b1c7765cbbacf4a1bf2cca640b4263d81434ae40fd591dd82b4cde11cb7499e",
	2:   "6f6956b67e1759cc8b78154837e12aa08449cb902e064a40021f142f8222a087",
	3:   "49f66396113cc4c418584e676895977ffb2f1ec05c810775f89567ad8f244993",
	4:   "bd5e27bd41b2803e8a0284edaf92213236ec10f52602cd4f538acdc87670443c",
	5:   "c34476dfd46a014e8a24ef9a9b62c6a9a553a2e90b9b64aa1603427ca6d0e21e",
	16:  "f2e15e21c31d41f61438e81295acbfa85a0342891d850aaae08ca08b2a8f7282",
	63:  "69fb629307dc9701cf0e68a7099e7b2b2fbfb22360cd3ffb36f3799ca4b468b4",
	64:  "428d8e8a6cb487c32bd734e4aa52a67d347da370a6766699d479fb127c4f014c",
	65:  "a9e1ade9b7e3034efe4524ab123fa22fdb999e04f726f94d578471ac90005bec",
	128: "93305289ecc3de2840e54a5a7421d472fca7f89ae56fe0b73ae2ea45c6f3dc87",
}

// l1Sweep is the L1 sweep the pins cover: dst.Row(j)[i] = −L1Distance(
// q.Row(j), m.Row(i)), as TransE's norm-1 object sweep scores. The pins were
// generated with the per-pair L1Distance loop; MatNegL1 replaced it here.
func l1Sweep(m, q *Matrix) []float32 {
	return MatNegL1(NewMatrix(q.Rows, m.Rows), m, q).Data
}

// batchedPinDigest sweeps matrices of cols columns whose row counts sit on
// and around the 4-row block and the tile edges with query blocks of 4 (one
// full lane group) up to 13 (three groups and a leftover query).
func batchedPinDigest(cols int) string {
	rng := rand.New(rand.NewSource(int64(2000 + cols)))
	h := sha256.New()
	var b [4]byte
	put := func(vs []float32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	tile := matMatTileRows(cols)
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, tile - 1, tile, tile + 1, tile + 3, tile + 4, 2*tile + 5} {
		m := randomMatrix(rng, rows, cols)
		for _, nq := range []int{4, 5, 7, 8, 9, 13} {
			q := randomMatrix(rng, nq, cols)
			put(MatMat(NewMatrix(nq, rows), m, q).Data)
			put(l1Sweep(m, q))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestBatchedKernelsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 16, 63, 64, 65, 128} {
		if got := batchedPinDigest(cols); got != kernelPinsBatched[cols] {
			t.Errorf("cols=%d: batched kernel digest %s, pinned %s", cols, got, kernelPinsBatched[cols])
		}
	}
}
