package vecmath

import "math"

// Training-grade transcendental kernels. The exact Sigmoid/Softplus in
// vecmath.go go through math.Exp/math.Log1p in float64 — correct to the last
// ulp, but KvsAll training needs |E|·2 transcendentals per context. The Fast*
// family below is the float32 polynomial substitute KvsAll's BCE step runs
// (BCEFusedGrad): ~1e-7 relative error (a handful of float32 ulps),
// severalfold faster, and — critically for the determinism contract — still
// a pure per-element function, so any accumulation built on it is
// bit-reproducible. The Logistic loss of negative sampling (internal/train)
// keeps the exact functions, and Platt calibration (internal/eval) its own
// float64 sigmoid; KvsAll's digests are defined over the Fast* values.
//
// The vector kernel (BCEFusedGrad, through sigmoidSoftplusVec) interleaves
// four lanes through the polynomial so the serial Horner dependency chains of
// neighboring elements overlap; per element every lane runs exactly the
// scalar FastSigmoid/FastSoftplus operation sequence, so vector and scalar
// results are bit-identical — the interleave is scheduling, not math.

const (
	expLog2e = 1.44269504088896341
	expLn2Hi = 6.93359375e-1
	expLn2Lo = -2.12194440e-4
	// expLower/expUpper clamp the argument so the 2^n exponent-bit scale in
	// fastExpCore stays in normal float32 range. Outside, e^x saturates:
	// 1.2e−38 below, 1.65e38 above (callers that need ±Inf semantics must
	// handle them before the core).
	expLower = -87.3
	expUpper = 88.0
	// expRoundBias makes round-to-nearest branchless: t+(0.5+bias) is
	// positive for every in-range t, so int32 truncation floors it.
	expRoundBias = 192

	oneBits = 0x3F800000 // math.Float32bits(1)

	// log1pSwitch is √2−1, the upper end of the log polynomial's native
	// range: below it ln(1+z) is evaluated directly on z (preserving tiny
	// z exactly — forming 1+z in float32 first would discard z's low bits),
	// above it 1+z is formed and reduced through FastLog, where the rounding
	// of the addition is benign relative to ln(1+z) ≥ 0.34.
	log1pSwitch = 0.41421356
)

func absf(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}

// negMask returns all-ones if x has its sign bit set (x < 0 or x = −0), else
// zero — the branchless select mask for sign-dependent formulas.
func negMask(x float32) uint32 {
	return uint32(int32(math.Float32bits(x)) >> 31)
}

// reluf returns max(x, 0) branchlessly (−0 maps to +0).
func reluf(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ negMask(x))
}

func clampExpLower(x float32) float32 {
	if x < expLower {
		return expLower
	}
	return x
}

// fastExpCore returns e^x for x ∈ [expLower, expUpper] with ≈1 ulp relative
// error, using the classic Cephes expf reduction: x = n·ln2 + r with
// |r| ≤ ln2/2, a degree-6 polynomial for e^r, and an exponent-bits scale by
// 2^n. Inputs must be pre-clamped; NaN propagates.
func fastExpCore(x float32) float32 {
	t := x * expLog2e
	n := int32(t+(0.5+expRoundBias)) - expRoundBias
	fn := float32(n)
	// r = x − n·ln2 in two steps so the reduction itself stays accurate.
	r := x - fn*expLn2Hi
	r -= fn * expLn2Lo
	// e^r on |r| ≤ ln2/2 (Cephes single-precision minimax coefficients).
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	y := p*r*r + r + 1
	// Scale by 2^n via the exponent bits; n ∈ [−126, 127] after the clamps,
	// so the bias never over/underflows.
	return y * math.Float32frombits(uint32(n+127)<<23)
}

// fastExp4 is fastExpCore over four lanes with the reduction steps
// interleaved, hiding the per-lane Horner latency. Per lane the operation
// sequence is exactly fastExpCore's, so each output is bit-identical to the
// scalar call.
func fastExp4(x0, x1, x2, x3 float32) (y0, y1, y2, y3 float32) {
	t0 := x0 * expLog2e
	t1 := x1 * expLog2e
	t2 := x2 * expLog2e
	t3 := x3 * expLog2e
	n0 := int32(t0+(0.5+expRoundBias)) - expRoundBias
	n1 := int32(t1+(0.5+expRoundBias)) - expRoundBias
	n2 := int32(t2+(0.5+expRoundBias)) - expRoundBias
	n3 := int32(t3+(0.5+expRoundBias)) - expRoundBias
	fn0, fn1, fn2, fn3 := float32(n0), float32(n1), float32(n2), float32(n3)
	r0 := x0 - fn0*expLn2Hi
	r1 := x1 - fn1*expLn2Hi
	r2 := x2 - fn2*expLn2Hi
	r3 := x3 - fn3*expLn2Hi
	r0 -= fn0 * expLn2Lo
	r1 -= fn1 * expLn2Lo
	r2 -= fn2 * expLn2Lo
	r3 -= fn3 * expLn2Lo
	p0 := float32(1.9875691500e-4)
	p1, p2, p3 := p0, p0, p0
	p0 = p0*r0 + 1.3981999507e-3
	p1 = p1*r1 + 1.3981999507e-3
	p2 = p2*r2 + 1.3981999507e-3
	p3 = p3*r3 + 1.3981999507e-3
	p0 = p0*r0 + 8.3334519073e-3
	p1 = p1*r1 + 8.3334519073e-3
	p2 = p2*r2 + 8.3334519073e-3
	p3 = p3*r3 + 8.3334519073e-3
	p0 = p0*r0 + 4.1665795894e-2
	p1 = p1*r1 + 4.1665795894e-2
	p2 = p2*r2 + 4.1665795894e-2
	p3 = p3*r3 + 4.1665795894e-2
	p0 = p0*r0 + 1.6666665459e-1
	p1 = p1*r1 + 1.6666665459e-1
	p2 = p2*r2 + 1.6666665459e-1
	p3 = p3*r3 + 1.6666665459e-1
	p0 = p0*r0 + 5.0000001201e-1
	p1 = p1*r1 + 5.0000001201e-1
	p2 = p2*r2 + 5.0000001201e-1
	p3 = p3*r3 + 5.0000001201e-1
	y0 = (p0*r0*r0 + r0 + 1) * math.Float32frombits(uint32(n0+127)<<23)
	y1 = (p1*r1*r1 + r1 + 1) * math.Float32frombits(uint32(n1+127)<<23)
	y2 = (p2*r2*r2 + r2 + 1) * math.Float32frombits(uint32(n2+127)<<23)
	y3 = (p3*r3*r3 + r3 + 1) * math.Float32frombits(uint32(n3+127)<<23)
	return
}

// FastExp returns e^x as float32 with ≈1 ulp relative error over
// [expLower, expUpper]; outside it saturates to the clamp values (≈1.2e−38
// and ≈1.65e38) rather than 0/+Inf. NaN propagates.
func FastExp(x float32) float32 {
	if x != x {
		return x
	}
	if x > expUpper {
		x = expUpper
	}
	return fastExpCore(clampExpLower(x))
}

// logPoly evaluates ln(1+z) for z ∈ (√½−1, √2−1) with the Cephes logf
// minimax polynomial: z + z³·P(z) − z²/2.
func logPoly(z float32) float32 {
	p := float32(7.0376836292e-2)
	p = p*z - 1.1514610310e-1
	p = p*z + 1.1676998740e-1
	p = p*z - 1.2420140846e-1
	p = p*z + 1.4249322787e-1
	p = p*z - 1.6668057665e-1
	p = p*z + 2.0000714765e-1
	p = p*z - 2.4999993993e-1
	p = p*z + 3.3333331174e-1
	zz := z * z
	return z + (p*z*zz - 0.5*zz)
}

// logPoly4 is logPoly over four lanes, interleaved; per lane bit-identical
// to the scalar call.
func logPoly4(z0, z1, z2, z3 float32) (l0, l1, l2, l3 float32) {
	p0 := float32(7.0376836292e-2)
	p1, p2, p3 := p0, p0, p0
	p0 = p0*z0 - 1.1514610310e-1
	p1 = p1*z1 - 1.1514610310e-1
	p2 = p2*z2 - 1.1514610310e-1
	p3 = p3*z3 - 1.1514610310e-1
	p0 = p0*z0 + 1.1676998740e-1
	p1 = p1*z1 + 1.1676998740e-1
	p2 = p2*z2 + 1.1676998740e-1
	p3 = p3*z3 + 1.1676998740e-1
	p0 = p0*z0 - 1.2420140846e-1
	p1 = p1*z1 - 1.2420140846e-1
	p2 = p2*z2 - 1.2420140846e-1
	p3 = p3*z3 - 1.2420140846e-1
	p0 = p0*z0 + 1.4249322787e-1
	p1 = p1*z1 + 1.4249322787e-1
	p2 = p2*z2 + 1.4249322787e-1
	p3 = p3*z3 + 1.4249322787e-1
	p0 = p0*z0 - 1.6668057665e-1
	p1 = p1*z1 - 1.6668057665e-1
	p2 = p2*z2 - 1.6668057665e-1
	p3 = p3*z3 - 1.6668057665e-1
	p0 = p0*z0 + 2.0000714765e-1
	p1 = p1*z1 + 2.0000714765e-1
	p2 = p2*z2 + 2.0000714765e-1
	p3 = p3*z3 + 2.0000714765e-1
	p0 = p0*z0 - 2.4999993993e-1
	p1 = p1*z1 - 2.4999993993e-1
	p2 = p2*z2 - 2.4999993993e-1
	p3 = p3*z3 - 2.4999993993e-1
	p0 = p0*z0 + 3.3333331174e-1
	p1 = p1*z1 + 3.3333331174e-1
	p2 = p2*z2 + 3.3333331174e-1
	p3 = p3*z3 + 3.3333331174e-1
	zz0, zz1, zz2, zz3 := z0*z0, z1*z1, z2*z2, z3*z3
	l0 = z0 + (p0*z0*zz0 - 0.5*zz0)
	l1 = z1 + (p1*z1*zz1 - 0.5*zz1)
	l2 = z2 + (p2*z2*zz2 - 0.5*zz2)
	l3 = z3 + (p3*z3*zz3 - 0.5*zz3)
	return
}

// FastLog returns ln(x) for x > 0 with ≈1 ulp relative error: mantissa
// reduction to [√½, √2), the logPoly core, and a two-step e·ln2
// recombination. Non-positive and special inputs are the callers' problem —
// the training kernels only ever pass 1+z ≥ 1.
func FastLog(x float32) float32 {
	u, e := logReduce(x)
	return logPoly(u) + e*expLn2Lo + e*expLn2Hi
}

// logReduce is FastLog's mantissa reduction, x = 2^e·(1+u) with 1+u in
// [√½, √2), without a branch: a mantissa below √½ is doubled by its exponent
// bits, which is exact.
func logReduce(x float32) (u, e float32) {
	bits := math.Float32bits(x)
	m := bits&0x007FFFFF | 0x3F000000        // mantissa ∈ [½, 1)
	low := uint32(int32(m-0x3F3504F3) >> 31) // all ones when m < float32(0.70710678)
	return math.Float32frombits(m+low&0x00800000) - 1, float32(int32(bits>>23) - 126 + int32(low))
}

// FastLog1p returns ln(1+z) for z ≥ 0, exact where it matters: tiny z skips
// the precision-destroying 1+z float32 addition entirely.
func FastLog1p(z float32) float32 {
	if z < log1pSwitch {
		return logPoly(z)
	}
	return FastLog(1 + z)
}

// sigmoidFromZ finishes a sigmoid given z = e^(−|x|): 1/(1+z) for x ≥ 0 and
// its reflection z/(1+z) for x < 0, selected branchlessly by x's sign bit.
// Working from e^(−|x|) keeps the exponential in (0, 1] — no overflow branch
// — and lets softplus share the same exp.
func sigmoidFromZ(x, z float32) float32 {
	m := negMask(x)
	num := math.Float32frombits(math.Float32bits(z)&m | oneBits&^m)
	return num / (1 + z)
}

// FastSigmoid returns 1/(1+e^(−x)) built on the Fast* kernels: ~1e−7
// relative error, saturating cleanly to 0 and 1 at the extremes.
func FastSigmoid(x float32) float32 {
	return sigmoidFromZ(x, fastExpCore(clampExpLower(-absf(x))))
}

// FastSoftplus returns ln(1+e^x) as max(x,0) + log1p(e^(−|x|)): the
// decomposition needs no large-x branch (the correction underflows to 0 by
// itself) and keeps full precision for very negative x, where the answer is
// e^x and a float32 1+e^x would round it away.
func FastSoftplus(x float32) float32 {
	return reluf(x) + FastLog1p(fastExpCore(clampExpLower(-absf(x))))
}

// log1p4 applies FastLog1p to four lanes without a branch: each lane's
// polynomial argument is FastLog1p's — z below log1pSwitch, else FastLog's
// reduction of 1+z — the four polynomials run interleaved, and a reduced
// lane adds FastLog's e·ln2 terms after. Bit-equal to the scalar calls lane
// by lane.
func log1p4(z0, z1, z2, z3 float32) (l0, l1, l2, l3 float32) {
	u0, e0, r0 := log1pReduce(z0)
	u1, e1, r1 := log1pReduce(z1)
	u2, e2, r2 := log1pReduce(z2)
	u3, e3, r3 := log1pReduce(z3)
	l0, l1, l2, l3 = logPoly4(u0, u1, u2, u3)
	l0 = selectf(r0, l0+e0*expLn2Lo+e0*expLn2Hi, l0)
	l1 = selectf(r1, l1+e1*expLn2Lo+e1*expLn2Hi, l1)
	l2 = selectf(r2, l2+e2*expLn2Lo+e2*expLn2Hi, l2)
	l3 = selectf(r3, l3+e3*expLn2Lo+e3*expLn2Hi, l3)
	return
}

// log1pReduce returns FastLog1p's polynomial argument for z: z itself when
// z < log1pSwitch, else logReduce(1+z)'s u, with its e and reduced all ones.
func log1pReduce(z float32) (u, e float32, reduced uint32) {
	if !(z < log1pSwitch) {
		reduced = ^uint32(0)
	}
	m, e := logReduce(1 + z)
	return selectf(reduced, m, z), e, reduced
}

// selectf returns a where mask is all ones and b where it is zero.
func selectf(mask uint32, a, b float32) float32 {
	return math.Float32frombits(math.Float32bits(a)&mask | math.Float32bits(b)&^mask)
}

// sigmoidSoftplusVec computes sig[i] = FastSigmoid(x[i]) and
// sp[i] = FastSoftplus(x[i]) from a single shared e^(−|x|) per element —
// both formulas are built on the same exponential, so fusing them halves
// the transcendental work of the BCE kernel. Bit-identical per element to
// the two scalar calls.
func sigmoidSoftplusVec(sig, sp, x []float32) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		z0, z1, z2, z3 := fastExp4(
			clampExpLower(-absf(x0)), clampExpLower(-absf(x1)),
			clampExpLower(-absf(x2)), clampExpLower(-absf(x3)))
		l0, l1, l2, l3 := log1p4(z0, z1, z2, z3)
		sig[i] = sigmoidFromZ(x0, z0)
		sig[i+1] = sigmoidFromZ(x1, z1)
		sig[i+2] = sigmoidFromZ(x2, z2)
		sig[i+3] = sigmoidFromZ(x3, z3)
		sp[i] = reluf(x0) + l0
		sp[i+1] = reluf(x1) + l1
		sp[i+2] = reluf(x2) + l2
		sp[i+3] = reluf(x3) + l3
	}
	for ; i < len(x); i++ {
		z := fastExpCore(clampExpLower(-absf(x[i])))
		sig[i] = sigmoidFromZ(x[i], z)
		sp[i] = reluf(x[i]) + FastLog1p(z)
	}
}

// bceTile is the element block BCEFusedGrad processes per pass: big enough
// to amortize loop overhead, small enough that the two scratch tiles live on
// the stack and in L1.
const bceTile = 512

// BCEFusedGrad is the fused binary-cross-entropy forward/gradient kernel of
// KvsAll training. For every index o it selects the target
//
//	y = posY if o ∈ positives else negY,
//
// accumulates the BCE loss softplus(scores[o]) − y·scores[o] in float64, and
// writes the upstream gradient (σ(scores[o]) − y)·gradScale into upstream[o].
// positives must be sorted ascending and duplicate-free (KvsAll object lists
// are); membership is a two-pointer merge, with no per-context hash map in
// training's hottest loop. upstream may be scores itself: each element is
// read before it is written.
//
// Determinism contract: the kernel is defined as per-element
// FastSigmoid/FastSoftplus with the float64 loss sum in ascending index
// order. The tiled, lane-interleaved, shared-exponential evaluation is pure
// scheduling — bit-identical to that scalar composition for any tile size,
// which the property test in loss_test.go pins to 0 ulps. It is *not*
// bit-identical to the exact Sigmoid/Softplus (the Fast* kernels differ by
// ~1e−7 relative), which the Logistic loss of negative sampling keeps;
// KvsAll training's digests are defined over this kernel.
func BCEFusedGrad(upstream, scores []float32, positives []int32, posY, negY, gradScale float32) float64 {
	if len(upstream) != len(scores) {
		panic("vecmath: BCEFusedGrad length mismatch")
	}
	var sig, sp [bceTile]float32
	var loss float64
	pi := 0
	for lo := 0; lo < len(scores); lo += bceTile {
		hi := lo + bceTile
		if hi > len(scores) {
			hi = len(scores)
		}
		tile := scores[lo:hi]
		sigmoidSoftplusVec(sig[:len(tile)], sp[:len(tile)], tile)
		for i, x := range tile {
			y := negY
			if pi < len(positives) && int(positives[pi]) == lo+i {
				y = posY
				pi++
			}
			loss += float64(sp[i] - y*x)
			upstream[lo+i] = (sig[i] - y) * gradScale
		}
	}
	return loss
}
