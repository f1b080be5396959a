package vecmath

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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

// axpyPairPins digest the two halves of the KvsAll backward pass's
// per-entity step, keyed by width d: "y" the entity gradient row, y +=
// g[k]·q.Row(js[k]), and "dq" the query gradients, dq.Row(js[k]) +=
// g[k]·e. Both were generated on AxpyPairs, which did the two in one pass,
// before it was split into AxpyGather and AxpyScatter.
var axpyPairPins = map[int][2]string{
	1: {"742920ded327192f44d73e7c4d4a63246e20e162b14a3d8e43ea0c65eea310f6",
		"4e3be263aca5cdc5664e8db6bb539bf5a1cab4f4f6d6ee00fa6528ca070954ef"},
	2: {"8d84ff26447754be467f50b95152a9ba2665b7a1e40db69f2d3fe62c5852c9a4",
		"c681f7ead7060dcfc592eba7095c3bd4f1831b1ed8e160c935833e30bdb3cb97"},
	3: {"232c8818e85aaa380834d16421c2db08f4461b304d92471fb86acce159b32cbc",
		"93428ebcaf1be1f2843e3e3dc7e7d012a2e0c1f35e3d720989f223030f7b2c2a"},
	4: {"94aaa29ffff9685cf575ba59001475e499c7a5a4cc3a9524ca8b2319c78419ee",
		"758868e18db74c59303eb46f07b795fc49d8cbb270018f157cc5bf226611b6f7"},
	5: {"be715bc517825df717a7c5960d29748f5dd781bd0b9e29ba5e4f81c0ee0a0de1",
		"76fc060f9cd8253daf7e094140d3c93ac5438531c1458656164a118ff155ae69"},
	7: {"f0007ac4f32b5fc5a15c26bd1b85d7383ee71791c3ff337682c25ec7df43d1ae",
		"afad0104149c05694e4b9bca374316fa7db77b8bb83a3e3c98eb93b7f3d7c32c"},
	8: {"d5f02be5fb5e995e61961a44222f3b7634cf919dd2a67315ef93263fe1551136",
		"84284b03643de3507711d3b8c27daf32618052f3f1f1bcbe37ee7084f53479ed"},
	9: {"2b21506cef86d6ec45150c93ea314ec0f81feb735754da4920492f4716a025f4",
		"aa3156f117b8be10e456c4b187fc698b15471c06a94df9506cce98647f536637"},
	15: {"c593f124c02956a1f8d7920c6f31be6544e35ef2c72454f17c8b3a45ded10493",
		"7aea0b2d798f77a89932bd1bad4c0ecfd723181833f39bd0be6076f20817ab86"},
	16: {"6a29f735ab6011f1d990c1fa19d4e18ed7a86d1289b6014f65772c00a1369685",
		"de7791dc5b205dc4deb21a0720b09966443117ed6d7d50e525f7b852ad14548a"},
	17: {"649db9ebb5e975e8df59e61e8f2d48d3b16ea8de19444608b20ee1d2a0cc560a",
		"dae4f2f01da6be38401ebccd717df122c881a0d1951b8aa1acab40ef16e9abdb"},
	31: {"a71fc575fc48299e9b802ec1a470061b570f41369b155794a099b77da11ee698",
		"abfdc41451fc013c940d72580c86ee51c15fa9a958e22994a3285c745f38be91"},
	32: {"6a4965eb5898cfe46636e5e484027bdc45876bf58339fcdfb7e62821b2416fbf",
		"ede0cc912157528fbb76b8718a8029b5d37d8082db547d029bf98a25655636f8"},
	33: {"58ba261710942479e4b26d9ba21cdf6e4da79ed4d1bf70fc767e182a4c5173ad",
		"0afcba9088d35b97e188b7895338b02770012b26b1f9d01378945ea4be6630aa"},
	63: {"421b20d49aa0f42549b66c0aca4cde33f8f747352ab9548b5a8057f1d82438a7",
		"fb50dd0a7cdd6c2c1c329afe4dccab78e1f619e75ce56294003663e8ddb77c97"},
	64: {"562972e8d2d8a81f593370b511b9e0fbf4635c9cde51d2e54ea4ff5b16e35224",
		"b855885258bac2d9930114ece3347024252f599c9ef530161770e1ada8aa7eae"},
	65: {"4013b3e19a8bbb9c0515d039afce8b72622f56fbd09102fa3a827e2ed8f8aef5",
		"eba50a9bf311ddcbcced6119a1de9be4c1a9691f69a72fa2ad1f99859b6571d8"},
	128: {"6f2f36d878fb1e0a81edc3f07034b3d459344077f421fa2912af818072b42fbc",
		"3b6f3368e02ef4508808cf173b8ca7f743075f118bb55fc8cb270471c6b3702a"},
}

// axpyPairPinDigests runs 64 steps at width d over one to 16 query rows,
// a drawn ascending subset of them as contexts; every operand is one of
// axpySpecials half the time. It returns the y digest and the dq digest.
func axpyPairPinDigests(d int) (string, string) {
	rng := rand.New(rand.NewSource(int64(7000 + d)))
	fill := func(xs []float32) []float32 {
		for i := range xs {
			xs[i] = float32(rng.NormFloat64())
			if rng.Intn(2) == 0 {
				xs[i] = axpySpecials[rng.Intn(len(axpySpecials))]
			}
		}
		return xs
	}
	hy, hdq := sha256.New(), sha256.New()
	put := func(h hash.Hash, xs []float32) {
		var b [4]byte
		for _, v := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	for rep := 0; rep < 64; rep++ {
		nr := 1 + rng.Intn(16)
		q := &Matrix{Rows: nr, Cols: d, Data: fill(make([]float32, nr*d))}
		dq := &Matrix{Rows: nr, Cols: d, Data: fill(make([]float32, nr*d))}
		y, e := fill(make([]float32, d)), fill(make([]float32, d))
		var js []int
		for j := 0; j < nr; j++ {
			if rng.Intn(3) != 0 {
				js = append(js, j)
			}
		}
		g := fill(make([]float32, len(js)))
		AxpyGather(y, g, js, q)
		AxpyScatter(dq, g, js, e)
		put(hy, y)
		put(hdq, dq.Data)
	}
	return hex.EncodeToString(hy.Sum(nil)), hex.EncodeToString(hdq.Sum(nil))
}

func TestAxpyPairHalvesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128} {
		y, dq := axpyPairPinDigests(d)
		if want := axpyPairPins[d]; y != want[0] || dq != want[1] {
			t.Errorf("d=%d: digests y %s dq %s, pinned y %s dq %s", d, y, dq, want[0], want[1])
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
