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

// kernelPins are SHA-256 digests of the float kernels' outputs on a seeded
// table, one per column count, generated at commit 964b11b — before the
// kernels' loops were rewritten for bounds-check elimination and the
// sign-mask abs. The float kernels' summation order is contractual
// (checkpoint and discovery digests hang off it), so a rewrite of MatVec,
// MatMat, Dot, L1Distance or SquaredL2Distance must reproduce every bit
// here; a mismatch means the accumulation order moved, not that the pin is
// stale.
var kernelPins = map[int]string{
	1:   "c956373d734423dd855e0b08a228190143205c88fa89a6427bae62fa9a17a2f4",
	2:   "271086a44c1f832ae3e394db141b3405ceda0e17a7657ff48118922bba4c1acd",
	3:   "09f52ee0e50f82f14227851a5a36a5e860867dada659de0751f2a793532a330d",
	4:   "88cd82a4098a08c99967fd507be9738b4cb746893f3761af9bc4b67d8307bf2d",
	5:   "bb0aafe099ec4fb02061ad79bc397c82bb1b7b80ca54c89461b5b8cce8dfe203",
	63:  "5a1596359accebd6cb6ff26f5d061e48095d72bdd5adc36b7b30fd66230f767a",
	64:  "d358a5a6e7d78bf4232d31147be954926c78907c60f76c55030613a652d8a478",
	65:  "a0d0cc0c37a66bcf3ca3e5ae7394fe6a01691b47dab4b04e7a9eed67167c2e21",
	128: "3debfda539191832fe7e5e663b5a5bb6918934b05b43ebea52181851f046eb66",
}

// pinDigest runs every pinned kernel over matrices of cols columns whose row
// counts sit on and around the 4-row block and the MatMat tile boundaries.
func pinDigest(cols int) string {
	rng := rand.New(rand.NewSource(int64(1000 + cols)))
	h := sha256.New()
	put := func(vs ...float32) {
		var b [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	tile := MatMatTileRows(cols)
	for _, rows := range []int{1, 3, 4, 5, 7, 8, tile - 1, tile, tile + 1, tile + 6, 2*tile + 3} {
		m := randomMatrix(rng, rows, cols)
		q := randomMatrix(rng, 3, cols)
		put(MatVec(make([]float32, rows), m, q.Row(0))...)
		put(MatMat(NewMatrix(3, rows), m, q).Data...)
		for i := 0; i < rows && i < 16; i++ {
			row := m.Row(i)
			put(Dot(row, q.Row(1)), L1Distance(row, q.Row(1)), SquaredL2Distance(row, q.Row(2)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKernelSummationOrderPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 63, 64, 65, 128} {
		if got := pinDigest(cols); got != kernelPins[cols] {
			t.Errorf("cols=%d: kernel output digest %s, pinned %s", cols, got, kernelPins[cols])
		}
	}
}

// naiveL1 is the branchy reference L1Distance is held to, bit for bit: the
// same four accumulators and final add, with |v| taken by comparison.
func naiveL1(a, b []float32) float32 {
	abs := func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	}
	var s [4]float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		for l := 0; l < 4; l++ {
			s[l] += abs(a[i+l] - b[i+l])
		}
	}
	for ; i < len(a); i++ {
		s[0] += abs(a[i] - b[i])
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// specialFloats are the values float kernels get wrong first: signed zeros
// and infinities, ±MaxFloat32 (whose sums and products overflow), the
// smallest subnormal, and ±1e-20, whose products with each other and with
// unit values are subnormal.
var specialFloats = []float32{0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-20, -1e-20}

// TestL1DistanceBitEqualToBranchyAbs covers what a sign-bit abs could get
// wrong against `if v < 0 { v = -v }`: differences of −0 (which the branch
// leaves as −0 and the mask turns into +0 — invisible only because the
// accumulators start at +0), equal elements, infinities, and every length
// around the 4-way unroll. NaN in must be NaN out on both.
func TestL1DistanceBitEqualToBranchyAbs(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := specialFloats
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 40; rep++ {
			a, b := randomVec(rng, n), randomVec(rng, n)
			for i := range a {
				switch rng.Intn(6) {
				case 0: // equal elements: a difference of +0
					b[i] = a[i]
				case 1:
					a[i] = special[rng.Intn(len(special))]
				case 2:
					a[i] = special[rng.Intn(len(special))]
					b[i] = special[rng.Intn(len(special))]
				}
			}
			got, want := L1Distance(a, b), naiveL1(a, b)
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Fatalf("n=%d: L1Distance = %x (%g), branchy reference %x (%g)\na=%v\nb=%v",
					n, math.Float32bits(got), got, math.Float32bits(want), want, a, b)
			}
		}
	}
	// An all-(−0) difference vector: the sum stays +0 either way.
	a, b := []float32{negZero, negZero, negZero, negZero, negZero}, []float32{0, 0, 0, 0, 0}
	if got := L1Distance(a, b); math.Float32bits(got) != 0 {
		t.Errorf("L1Distance of −0 differences = %x, want +0", math.Float32bits(got))
	}
	nan := float32(math.NaN())
	if got := L1Distance([]float32{1, nan, 3}, []float32{1, 2, 3}); got == got {
		t.Errorf("L1Distance with a NaN element = %g, want NaN", got)
	}
}
