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
// MatMat, Dot or L1Distance must reproduce every bit here; a mismatch means
// the accumulation order moved, not that the pin is stale. The digests also
// hash squared L2 distances, from a kernel since deleted, so its loop stays
// here as squaredL2Pinned.
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
	tile := matMatTileRows(cols)
	for _, rows := range []int{1, 3, 4, 5, 7, 8, tile - 1, tile, tile + 1, tile + 6, 2*tile + 3} {
		m := randomMatrix(rng, rows, cols)
		q := randomMatrix(rng, 3, cols)
		put(MatVec(make([]float32, rows), m, q.Row(0))...)
		put(MatMat(NewMatrix(3, rows), m, q).Data...)
		for i := 0; i < rows && i < 16; i++ {
			row := m.Row(i)
			put(Dot(row, q.Row(1)), L1Distance(row, q.Row(1)), squaredL2Pinned(row, q.Row(2)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// squaredL2Pinned is the deleted SquaredL2Distance kernel, Σ(aᵢ−bᵢ)² over
// four accumulators, kept for the bytes kernelPins were generated over.
func squaredL2Pinned(a, b []float32) float32 {
	var s [4]float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		for k := range s {
			d := a[i+k] - b[i+k]
			s[k] += d * d
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s[0] += d * d
	}
	return (s[0] + s[1]) + (s[2] + s[3])
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

// axpyPins are SHA-256 digests of Axpy's output, one per length, generated
// on the Go loop before Axpy had an assembly body. α and both vectors are
// drawn from ordinary values and axpySpecials, so a kernel that swaps the
// operands of the multiply or the add (which NaN payload survives), fuses
// them, or flushes subnormals changes a digest. Never regenerated.
var axpyPins = map[int]string{
	0:   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	1:   "5309b2be9fc10d3e0bc82be358ff57f61691a6b38d736b7c987b5babf34e0c0c",
	2:   "d8ffd9c5c7a2189e08755d3bfd2fd65740292a17f3c179420ca90f0da76bc795",
	3:   "a885772aa6dc0c05b5b345ade3314837865d5a06f93242324e6dc3b1df178176",
	4:   "ec76390e1371c4679db5ccce3dc6ec57e30f6614df949b4f7ebe75d47793f130",
	5:   "eff745d30ab36846c8273ac1bd408f482e2ff1105daeb5c1378572f29cd0849b",
	6:   "9b131126bbd6681123e5019ec32bc9b3cdfdbbe097f066a972a913c4bd7955e0",
	7:   "893061a32d4f101834bf2ff4835feea913578ad595d5a101c0253452d8a93224",
	8:   "bd37f4a8739b011c29c0d21716cf05dbe827c299ae91115fbdcb4281cfe19560",
	9:   "d9fba5b149c9fa2ceec17b0ccb1772f7c19da800c93e2d00e4f011a9c14edcdd",
	63:  "83220bfee4d4dcd98583da895a4bb9fc255f3c6d38f7d8afd1fd2a43a008f280",
	64:  "10561e0d9b3f258f7ce664eaceb181bfc46787bc6006e0f8dd633f89f1ca97a0",
	65:  "68621f05e7ce4446596f0b035dbf296bcc761938fa13fbbca59906b99f122368",
	128: "e3ebe0dd067c256fa83ec744568a8987303af0191a7d8485ee058c8090c3350c",
}

// axpySpecials are specialFloats plus four NaNs with distinct payloads, the
// last one signalling: when both operands of an SSE multiply or add are NaN,
// the first operand's payload is the one that survives.
var axpySpecials = append([]float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002),
	math.Float32frombits(0xffc00003), math.Float32frombits(0x7f800004),
}, specialFloats...)

// axpyPinDigest runs Axpy 256 times at length n: the first 2·|axpySpecials|
// runs take each special as α twice, the rest a drawn one; every element is
// special half the time.
func axpyPinDigest(n int) string {
	rng := rand.New(rand.NewSource(int64(3000 + n)))
	pick := func() float32 {
		if rng.Intn(2) == 0 {
			return axpySpecials[rng.Intn(len(axpySpecials))]
		}
		return float32(rng.NormFloat64())
	}
	h := sha256.New()
	var b [4]byte
	x, y := make([]float32, n), make([]float32, n)
	for rep := 0; rep < 256; rep++ {
		alpha := pick()
		if rep < 2*len(axpySpecials) {
			alpha = axpySpecials[rep/2]
		}
		for i := range x {
			x[i], y[i] = pick(), pick()
		}
		Axpy(alpha, x, y)
		for _, v := range y {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAxpyPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 128} {
		if got := axpyPinDigest(n); got != axpyPins[n] {
			t.Errorf("n=%d: Axpy output digest %s, pinned %s", n, got, axpyPins[n])
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
