package kge

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/kg"
	"repro/internal/vecmath"
)

// The training loops' float bits on hostile inputs: ConvE's forward pass
// (the 3×3 convolution with its ReLU, then the fully connected layer) and
// the KvsAll backward pass's per-entity step. Both digest tables were
// generated on the Go loops before either had an assembly body and are never
// regenerated: a kernel that swaps the operands of a multiply or an add
// (which NaN payload survives), re-associates, fuses or flushes subnormals
// changes a digest.

// pinSpecials are four NaNs with distinct payloads (the last one
// signalling), signed zeros and infinities, ±MaxFloat32, the smallest
// subnormals and ±1e-20, whose products are subnormal.
var pinSpecials = []float32{
	math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002),
	math.Float32frombits(0xffc00003), math.Float32frombits(0x7f800004),
	0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-20, -1e-20,
}

// pinFill overwrites xs with N(0, 1) draws, each replaced by a special with
// probability eighths/8.
func pinFill(rng *rand.Rand, eighths int, xs []float32) {
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
		if rng.Intn(8) < eighths {
			xs[i] = pinSpecials[rng.Intn(len(pinSpecials))]
		}
	}
}

func pinPut(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// pinDensities are the special-value densities, in eighths, that the
// repetitions cycle through: none, sparse (most blocks clean, a few taking
// a NaN path), half, and every operand special.
var pinDensities = []int{0, 1, 4, 8}

// convePins digest ConvE's forward pass — conv pre-activations, their ReLU,
// the fc pre-activations and the hidden vector — keyed by the convolution's
// output width ow: the image is 2h×(ow+2), h = 2 + ow%2, with 2 filters, so
// widths below, on and past a 4-column register and its overlapping last
// block all run. Key 672 is the Dim 64 geometry (8×8, 8 filters: 14×6
// outputs per filter, 672 in all). Width 0 has no ConvE: NewConvE needs
// w ≥ 3.
var convePins = map[int]string{
	1:   "2a32b61a7e2d204c4aecb97488a7d5a27d846649eacde25d1ae397d69bddc336",
	2:   "5025b80505845571fa97bf9edbf305814e9a89d466a84340607239a5ad2a39a8",
	3:   "c57af1e7a9054f866edb7173967ba60ef43def8bb74d1855bdcfdeb062d37e0b",
	4:   "fd7797bc4459c34fbf89efad822013c03ed97e974f9333a31643378543f1cdb6",
	5:   "d74eba065059572e4a2a35cdaa24df28fea0acaeb2e005bd08165a0716b3d94c",
	6:   "69afe18d6adae57c514d86f2a32571cc120e6a3acb3bf6330d513599f0144251",
	7:   "39e32affec49aa503aa0e96caadf7c840a95f46765c446990effe2cebf349bb4",
	8:   "16c1f272bb196e5df694fb817d82ae658573fc12017942ace8a32a204ab17488",
	9:   "2dc45878d567793f5873ace4992b79537f6a99b9fd94a4159d87371e74ed929f",
	15:  "6e0b3e2127bc7aa5f51c6f115a3596fe3ae516a8d6b8efef6b4cb9aeaa7a2370",
	16:  "8e20786dc286a6a0c53277dbe959c604431241d934dcf1613110ad0a959bdbd3",
	17:  "ea5fd73f78ae5f9f382c371b49461be8f46d7e3932ba433244e68252bd816c51",
	63:  "7546aa50922cbcc1de684f7e52f3b98b8adc1a9d1762f52cd095b28500ea0936",
	64:  "a30367e8979345e3d89ed845e9b51d628db849786caa6ccac9fb51bd741cc44a",
	65:  "9c551802701b83de2ec87fed6dab4c4144b60781e746f45f0957ee9166bcf651",
	672: "89bc8f06d97f1a3c79af5892e9dc956f641523ca66dcedd2daaf6e17b73abcf5",
}

func convePinDigest(t *testing.T, key int) string {
	t.Helper()
	cfg := Config{NumEntities: 3, NumRelations: 2, Seed: 1, ConvEFilters: 2}
	if key == 672 {
		cfg.ConvEHeight, cfg.ConvEWidth, cfg.ConvEFilters = 8, 8, 8
	} else {
		cfg.ConvEHeight, cfg.ConvEWidth = 2+key%2, key+2
	}
	cfg.Dim = cfg.ConvEHeight * cfg.ConvEWidth
	m, err := NewConvE(cfg)
	if err != nil {
		t.Fatalf("NewConvE(%+v): %v", cfg, err)
	}
	rng := rand.New(rand.NewSource(int64(5000 + key)))
	h := sha256.New()
	for rep := 0; rep < 32; rep++ {
		density := pinDensities[rep%len(pinDensities)]
		for _, p := range m.Params().List() {
			pinFill(rng, density, p.M.Data)
		}
		c := m.forward(nil, kg.EntityID(rng.Intn(3)), kg.RelationID(rng.Intn(2)))
		pinPut(h, c.z1)
		pinPut(h, c.x)
		pinPut(h, c.z2)
		pinPut(h, c.hidden)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestConvEForwardPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	if raceBuild {
		t.Skip("the race build compiles the Go loops with other operand orders, so other NaN payloads survive")
	}
	for _, ow := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 672} {
		if got := convePinDigest(t, ow); got != convePins[ow] {
			t.Errorf("ow=%d: ConvE forward digest %s, pinned %s", ow, got, convePins[ow])
		}
	}
}

// kvsAllStepPins digest every gradient row one KvsAll chunk leaves — the
// entity rows, the relation rows and the subjects through the adjoint of
// dq — keyed by model and Dim: DistMult at every length (Dim 0 has no model:
// New needs Dim ≥ 1), and ConvE at Dim 64, the one model whose step also
// sums an entity bias. Upstream entries are zero (+0 and −0) a third of the
// time, so contexts skip per entity.
var kvsAllStepPins = map[string]string{
	"distmult/1":   "40b4c919da6d1404ab456365d4df6f0633cdc0c96887e3d1a8984fc76ef5b40a",
	"distmult/2":   "0319f5eb46cb2717809878953bed992214711cbdba6928997a09fe06cade923e",
	"distmult/3":   "138cb0384b115e1f438d3c8b01f80bd9d41d5c3368a894edc4c984acd1a3bb91",
	"distmult/4":   "d9d7984b8d7f44114c7d3df2278a3c15427694b3260d4b03b898dfa6a99f8743",
	"distmult/5":   "a731b214b9f238a185103ce29dc71a106b02f1a2f117a0c162576254a298aa3f",
	"distmult/6":   "24e426e12716ad7d161686572514020b9568a4af23912720d5c136b0fb0f900d",
	"distmult/7":   "6ce1b5bc140990670210c3c1877139b81cb3c3e3c9918de4f0090ca39993dfb4",
	"distmult/8":   "f5451adc64e30fa82c13aee339d437a450fd1eb93c537c87fc369a0d26ef5e35",
	"distmult/9":   "d3a22d4c85369fb1a69ba38b491da9beb8d5d4594d7d024028d2b6c3cf18a8c6",
	"distmult/15":  "024d471c6247c9ad44bf2af208c29fb2f1eb60361fea7d80df3b1624a09fef53",
	"distmult/16":  "5aeeaeab79a7a50a7ee4ecf0251da4bc22884aa874a474f07dda6ff5416b8841",
	"distmult/17":  "75f1b0ee9e794918ed67dde9ed0a8407b8670cb282ec2b967464d5620181540a",
	"distmult/63":  "0ec259808c35a4aa78c639c22bebb44a67794cf5cd14f4128495e36c1264238a",
	"distmult/64":  "1a34d856299ed4263e87ffb7dd971f4ad2cd0f692dfdb3585ccca6490d86209c",
	"distmult/65":  "9dedb532bc751bef3985ca30bd77737b222c0bcc8e08f2c3e1ad8e5de395386f",
	"distmult/672": "c7c5bdf49193a3b7be90e0baacefd0cbf69c56b29894f6cbeb55133e064254f2",
	"conve/64":     "8c64db1d009d98f53480d17fbd70b12a1029cf60f3ec44bd57b41e500e55990a",
}

func kvsAllStepPinDigest(t *testing.T, name string, dim int) string {
	t.Helper()
	const ents, rels = 12, 2
	m, err := New(name, Config{NumEntities: ents, NumRelations: rels, Dim: dim, Seed: 1})
	if err != nil {
		t.Fatalf("New(%s, %d): %v", name, dim, err)
	}
	d := m.(*Derived)
	rng := rand.New(rand.NewSource(int64(6000 + dim)))
	h := sha256.New()
	for rep := 0; rep < 16; rep++ {
		density := pinDensities[rep%len(pinDensities)]
		for _, p := range m.Params().List() {
			pinFill(rng, density, p.M.Data)
		}
		nctx := 1 + rng.Intn(5)
		ss, rs := make([]kg.EntityID, nctx), make([]kg.RelationID, nctx)
		for j := range ss {
			ss[j], rs[j] = kg.EntityID(rng.Intn(ents)), kg.RelationID(rng.Intn(rels))
		}
		up := vecmath.NewMatrix(nctx, ents)
		pinFill(rng, density, up.Data)
		for i := range up.Data {
			switch rng.Intn(6) {
			case 0:
				up.Data[i] = 0
			case 1:
				up.Data[i] = float32(math.Copysign(0, -1))
			}
		}
		gb := NewGradBuffer(m.Params())
		d.AccumulateGradAllObjectsBatch(ss, rs, up, gb)
		forEachGrad(gb, func(p *Param, row int, grad []float32) {
			fmt.Fprintf(h, "%s/%d:", p.Name, row)
			pinPut(h, grad)
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKvsAllStepPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("kernel digests are pinned on amd64: other ports fuse multiply-adds, which changes float bits")
	}
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 672} {
		key := fmt.Sprintf("distmult/%d", dim)
		if got := kvsAllStepPinDigest(t, "distmult", dim); got != kvsAllStepPins[key] {
			t.Errorf("%s: KvsAll step digest %s, pinned %s", key, got, kvsAllStepPins[key])
		}
	}
	if got := kvsAllStepPinDigest(t, "conve", 64); got != kvsAllStepPins["conve/64"] {
		t.Errorf("conve/64: KvsAll step digest %s, pinned %s", got, kvsAllStepPins["conve/64"])
	}
}
