package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kge"
)

// adamRowPins are SHA-256 digests of Adam's row update, one per row width,
// generated on the Go loop before the update had an assembly body and never
// regenerated. Every operand — the weight, both moments, the gradient, lr,
// β₁, β₂, ε and through βᵗ the bias corrections — is an ordinary value or,
// at a density that cycles per repetition, a special one (NaN payloads,
// signed zeros, infinities, subnormals), so a kernel that swaps operands
// (which NaN payload survives), reorders the expression, fuses or flushes
// subnormals changes a digest. Each repetition updates one row of three and
// digests all three, with both moments.
var adamRowPins = map[int]string{
	0:   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	1:   "27194494be77ec92f21b2841f037106ffe4204120f1bd8e99b7f8e9a89261c3e",
	2:   "01781b8f9bddf11d2583f3762d3fecd842b54f625de3b2881c559fd3212d1a86",
	3:   "1253fbc266f3936eb8bd5b73ccd9dc62f9c2e6f7ccd24623da681456c0a55606",
	4:   "3342bfcaba69ac0fefcf43ea312c9c70ac7243fb57a432c0b67fe427e91faf87",
	5:   "08e4e69c7acc6240c5fe17fbff4be613a36aebec9eaaf635a8471cd8843019f8",
	6:   "6d4738c011abbb0a9369fcf2afc4fcea8e812ad5f231930cbaf95e3ffc453b31",
	7:   "74f13dca866ff30694ee26a1cd31b7f2b55ba66388bc25e4f5c24aa86ab3741e",
	8:   "008367005a444ffeea19eac5f3ccb937d21fa8c3ef86d7a9154c902e34bc0d12",
	9:   "b0635c2c0866003405f22b435198c14bb6e80531856da188123fde66ea0660dc",
	15:  "3b6beb4160075b0ff829c981ce18fc194ab72bc1350ad514f7d56ed445c29fc7",
	16:  "c3fc6ff0b1c611299acdb12c756faa5cdee4b7d895a5792c3cac57e402165089",
	17:  "01642b1107ea322f0eda23cdf91209c3ecf11edf6a7b569f666df2dc9e32fceb",
	63:  "6adccc56a1e7eb41ee0a7029c2bed4f356432917e775992e13a46a61a0fb6026",
	64:  "ec2776aba1efaefb6d380430ff3f912de07b8118a497b6a7825b2b0ad02c71e4",
	65:  "b47ad438b385a092d0f4ba00b039fedbe98e3c58089fefcd135a9587a93f5241",
	672: "3a4ef04ee6ac088a48fa20639e6c60e22040234d12a6952a8d2ed6028ba09cb0",
}

// adamSpecials are four NaNs with distinct payloads (the last one
// signalling), signed zeros and infinities, ±MaxFloat32, the smallest
// subnormals and ±1e-20, whose products are subnormal.
var adamSpecials = []float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002),
	math.Float32frombits(0xffc00003), math.Float32frombits(0x7f800004),
	0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-20, -1e-20,
}

func adamRowPinDigest(n int) string {
	const rows = 3
	rng := rand.New(rand.NewSource(int64(4000 + n)))
	h := sha256.New()
	put := func(xs []float32) {
		var b [4]byte
		for _, v := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	for rep := 0; rep < 64; rep++ {
		eighths := []int{0, 1, 4, 8}[rep%4]
		pick := func(ordinary float32) float32 {
			if rng.Intn(8) < eighths {
				return adamSpecials[rng.Intn(len(adamSpecials))]
			}
			return ordinary
		}
		fill := func(xs []float32, scale float32, abs bool) {
			for i := range xs {
				v := float32(rng.NormFloat64()) * scale
				if abs && v < 0 {
					v = -v
				}
				xs[i] = pick(v)
			}
		}
		p := kge.NewParamSet().Add("w", rows, n)
		a := NewAdam(pick(0.001 + 0.1*rng.Float32())).(*adam)
		a.beta1, a.beta2, a.eps = pick(a.beta1), pick(a.beta2), pick(a.eps)
		steps := 1 + rng.Intn(3)
		var update func(int, []float32)
		for i := 0; i < steps; i++ {
			update = a.Rows(p)
		}
		st := a.state[p]
		fill(p.M.Data, 1, false)
		fill(st.m, 0.1, false)
		fill(st.v, 0.01, true)
		row := rng.Intn(rows)
		st.t[row] = int32(rng.Intn(steps))
		g := make([]float32, n)
		fill(g, 1, false)
		update(row, g)
		put(p.M.Data)
		put(st.m)
		put(st.v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAdamRowPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	if raceBuild {
		t.Skip("the race build compiles the Go loop with other operand orders, so other NaN payloads survive")
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 672} {
		if got := adamRowPinDigest(n); got != adamRowPins[n] {
			t.Errorf("n=%d: Adam row digest %s, pinned %s", n, got, adamRowPins[n])
		}
	}
}
