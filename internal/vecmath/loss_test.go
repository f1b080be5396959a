package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// relErr returns |got−want|/max(|want|, tiny).
func relErr(got float32, want float64) float64 {
	d := math.Abs(float64(got) - want)
	den := math.Abs(want)
	if den < 1e-30 {
		den = 1e-30
	}
	return d / den
}

func TestFastExpAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		x := float32((rng.Float64()*2 - 1) * 87)
		if err := relErr(FastExp(x), math.Exp(float64(x))); err > 1e-6 {
			t.Fatalf("FastExp(%g) = %g, want %g (rel err %g)", x, FastExp(x), math.Exp(float64(x)), err)
		}
	}
}

func TestFastExpEdgeCases(t *testing.T) {
	if got := FastExp(0); got != 1 {
		t.Errorf("FastExp(0) = %g, want exactly 1", got)
	}
	// Out-of-range arguments saturate at the clamp values rather than
	// overflowing the exponent-bit scale.
	if got, want := FastExp(200), FastExp(88); got != want || math.IsInf(float64(got), 0) || got < 1e38 {
		t.Errorf("FastExp(200) = %g, want finite saturation %g", got, want)
	}
	if got, want := FastExp(-200), FastExp(-87.3); got != want || got == 0 || got > 2e-38 {
		t.Errorf("FastExp(-200) = %g, want tiny saturation %g", got, want)
	}
	if got := FastExp(float32(math.NaN())); !math.IsNaN(float64(got)) {
		t.Errorf("FastExp(NaN) = %g, want NaN", got)
	}
}

func TestFastLogAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		// Log-uniform over (1e−30, 1e30).
		x := float32(math.Exp((rng.Float64()*2 - 1) * 69))
		if err := relErr(FastLog(x), math.Log(float64(x))); err > 1e-6 {
			t.Fatalf("FastLog(%g) rel err %g", x, err)
		}
	}
}

func TestFastLog1pAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		// Log-uniform z over (e^−40, e^5): covers the tiny-z regime where
		// forming 1+z in float32 would destroy all precision.
		z := float32(math.Exp(rng.Float64()*45 - 40))
		if err := relErr(FastLog1p(z), math.Log1p(float64(z))); err > 1e-6 {
			t.Fatalf("FastLog1p(%g) = %g, want %g (rel err %g)", z, FastLog1p(z), math.Log1p(float64(z)), err)
		}
	}
}

// TestLog1p4BitEqualToScalar holds the branch-free lanes of log1p4 to
// FastLog1p, and logReduce's exponent-bit doubling to the multiply it
// replaced, bit for bit: over every 4099th float32 pattern (NaNs of both
// signs, infinities, zeros and subnormals among them) and the patterns
// around log1pSwitch, in every lane position.
func TestLog1p4BitEqualToScalar(t *testing.T) {
	fastLogMul := func(x float32) float32 {
		bits := math.Float32bits(x)
		e := int32(bits>>23) - 126
		m := math.Float32frombits(bits&0x007FFFFF | 0x3F000000)
		if m < 0.70710678 {
			m *= 2
			e--
		}
		return logPoly(m-1) + float32(e)*expLn2Lo + float32(e)*expLn2Hi
	}
	var zs []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		zs = append(zs, math.Float32frombits(uint32(b)))
	}
	sw := math.Float32bits(log1pSwitch)
	for b := sw - 2; b <= sw+2; b++ {
		zs = append(zs, math.Float32frombits(b))
	}
	for i, z := range zs {
		if got, want := FastLog(z), fastLogMul(z); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("FastLog(%x) = %x, the multiplying reduction gives %x", math.Float32bits(z), math.Float32bits(got), math.Float32bits(want))
		}
		lanes := [4]float32{z, zs[(i+1)%len(zs)], zs[(i+2)%len(zs)], zs[(i+3)%len(zs)]}
		var got [4]float32
		got[0], got[1], got[2], got[3] = log1p4(lanes[0], lanes[1], lanes[2], lanes[3])
		for k, l := range lanes {
			if want := FastLog1p(l); math.Float32bits(got[k]) != math.Float32bits(want) {
				t.Fatalf("log1p4 lane %d of %x = %x, FastLog1p %x", k, math.Float32bits(l), math.Float32bits(got[k]), math.Float32bits(want))
			}
		}
	}
}

func TestFastSigmoidAndSoftplusVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		x := float32((rng.Float64()*2 - 1) * 60)
		want := 1 / (1 + math.Exp(-float64(x)))
		if err := relErr(FastSigmoid(x), want); err > 1e-5 {
			t.Fatalf("FastSigmoid(%g) rel err %g", x, err)
		}
		wantSp := math.Log1p(math.Exp(float64(x)))
		if float64(x) > 30 {
			wantSp = float64(x)
		}
		if err := relErr(FastSoftplus(x), wantSp); err > 1e-5 {
			t.Fatalf("FastSoftplus(%g) = %g, want %g (rel err %g)", x, FastSoftplus(x), wantSp, err)
		}
	}
}

func TestSigmoidSoftplusVecMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float32, 1337)
	for i := range x {
		x[i] = float32((rng.Float64()*2 - 1) * 50)
	}
	sig := make([]float32, len(x))
	sp := make([]float32, len(x))
	sigmoidSoftplusVec(sig, sp, x)
	for i, v := range x {
		if sig[i] != FastSigmoid(v) {
			t.Fatalf("sigmoid lane %d = %v, scalar %v", i, sig[i], FastSigmoid(v))
		}
		if sp[i] != FastSoftplus(v) {
			t.Fatalf("softplus lane %d = %v, scalar %v", i, sp[i], FastSoftplus(v))
		}
	}
}

// TestBCEFusedGradZeroUlp pins the kernel's determinism contract: for any
// input, loss and every upstream element are bit-identical to the scalar
// composition the kernel is defined as — per-element FastSigmoid/FastSoftplus,
// positive lookup by membership, float64 loss accumulation in ascending
// index order. The fused tiling and the two-pointer merge must be pure
// scheduling, 0 ulps apart from the reference.
func TestBCEFusedGradZeroUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4000) // crosses several bceTile boundaries
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = float32(rng.NormFloat64() * 5)
		}
		// Random sorted duplicate-free positive list (possibly empty, possibly all).
		posSet := make(map[int]bool)
		var positives []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.1 {
				posSet[i] = true
				positives = append(positives, int32(i))
			}
		}
		posY := float32(0.9 + rng.Float64()*0.1)
		negY := float32(rng.Float64() * 0.01)
		gradScale := float32(1 / float64(n))

		got := make([]float32, n)
		gotLoss := BCEFusedGrad(got, scores, positives, posY, negY, gradScale)

		var wantLoss float64
		for o, x := range scores {
			y := negY
			if posSet[o] {
				y = posY
			}
			wantLoss += float64(FastSoftplus(x) - y*x)
			wantUp := (FastSigmoid(x) - y) * gradScale
			if math.Float32bits(got[o]) != math.Float32bits(wantUp) {
				t.Fatalf("trial %d: upstream[%d] = %v (bits %x), want %v (bits %x)",
					trial, o, got[o], math.Float32bits(got[o]), wantUp, math.Float32bits(wantUp))
			}
		}
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("trial %d: loss = %v, want %v (not bit-identical)", trial, gotLoss, wantLoss)
		}
		// In place, as KvsAll runs it: the scores become the upstream.
		inPlace := append([]float32(nil), scores...)
		if l := BCEFusedGrad(inPlace, inPlace, positives, posY, negY, gradScale); math.Float64bits(l) != math.Float64bits(gotLoss) {
			t.Fatalf("trial %d: in place, loss = %v, want %v", trial, l, gotLoss)
		}
		for o, v := range inPlace {
			if math.Float32bits(v) != math.Float32bits(got[o]) {
				t.Fatalf("trial %d: in place, upstream[%d] = %v, want %v", trial, o, v, got[o])
			}
		}
	}
}

// The fused kernel must track the exact float64 BCE path closely even though
// it is not bit-identical to it (the exact Sigmoid/Softplus stay the
// Logistic loss's, in negative sampling).
func TestBCEFusedGradVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	scores := make([]float32, n)
	for i := range scores {
		scores[i] = float32(rng.NormFloat64() * 8)
	}
	positives := []int32{3, 77, 2048, 4999}
	posSet := map[int]bool{3: true, 77: true, 2048: true, 4999: true}
	const posY, negY, scale = 0.95, 0.005, 1.0 / 5000

	up := make([]float32, n)
	loss := BCEFusedGrad(up, scores, positives, posY, negY, scale)

	var wantLoss float64
	for o, x := range scores {
		y := float64(negY)
		if posSet[o] {
			y = float64(posY)
		}
		sp := math.Log1p(math.Exp(float64(x)))
		if float64(x) > 30 {
			sp = float64(x)
		}
		wantLoss += sp - y*float64(x)
		wantUp := (1/(1+math.Exp(-float64(x))) - y) * scale
		if d := math.Abs(float64(up[o]) - wantUp); d > 1e-9 {
			t.Fatalf("upstream[%d] = %v, exact %v (abs diff %g)", o, up[o], wantUp, d)
		}
	}
	if d := math.Abs(loss-wantLoss) / math.Abs(wantLoss); d > 1e-5 {
		t.Fatalf("loss = %v, exact %v (rel diff %g)", loss, wantLoss, d)
	}
}

func BenchmarkSigmoidExact(b *testing.B) {
	x := benchInputs(4096)
	b.SetBytes(4096 * 4)
	for i := 0; i < b.N; i++ {
		var s float32
		for _, v := range x {
			s += Sigmoid(v)
		}
		sink = s
	}
}

func BenchmarkBCEFusedGrad(b *testing.B) {
	x := benchInputs(50000)
	up := make([]float32, len(x))
	positives := []int32{5, 1000, 20000, 49999}
	b.SetBytes(50000 * 4)
	for i := 0; i < b.N; i++ {
		BCEFusedGrad(up, x, positives, 0.95, 0.005, 1e-4)
	}
}

var sink float32

func benchInputs(n int) []float32 {
	rng := rand.New(rand.NewSource(8))
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 4)
	}
	return x
}
