package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func randomVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float32{1, 1, 1}
	Axpy(2, []float32{1, 2, 3}, y)
	want := []float32{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestHadamardAddSub(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	dst := make([]float32, 3)
	Hadamard(dst, a, b)
	if dst[0] != 4 || dst[1] != 10 || dst[2] != 18 {
		t.Errorf("Hadamard = %v", dst)
	}
	Add(dst, a, b)
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 9 {
		t.Errorf("Add = %v", dst)
	}
	Sub(dst, a, b)
	if dst[0] != -3 || dst[1] != -3 || dst[2] != -3 {
		t.Errorf("Sub = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	v := []float32{3, -4}
	if got := L2Norm(v); got != 5 {
		t.Errorf("L2Norm = %g, want 5", got)
	}
	if got := SquaredL2Norm(v); got != 25 {
		t.Errorf("SquaredL2Norm = %g, want 25", got)
	}
}

func TestDistances(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{4, -2}
	if got := L1Distance(a, b); got != 7 {
		t.Errorf("L1Distance = %g, want 7", got)
	}
}

func TestNormalizeL2(t *testing.T) {
	v := []float32{3, 4}
	if !NormalizeL2(v) || !almostEqual(L2Norm(v), 1, 1e-6) {
		t.Errorf("norm after NormalizeL2 = %g, or it reported no change", L2Norm(v))
	}
	zero := []float32{0, 0}
	if NormalizeL2(zero) || zero[0] != 0 || zero[1] != 0 { // must not NaN
		t.Errorf("NormalizeL2 perturbed the zero vector: %v", zero)
	}
	// A unit vector scales by exactly 1: a fixed point, reported unchanged.
	if unit := []float32{0, -1}; NormalizeL2(unit) || unit[1] != -1 {
		t.Errorf("NormalizeL2 changed the unit vector to %v", unit)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 1000)
	XavierInit(rng, v, 50, 50)
	bound := float32(math.Sqrt(6.0 / 100))
	for i, x := range v {
		if x < -bound || x > bound {
			t.Fatalf("v[%d] = %g outside ±%g", i, x, bound)
		}
	}
	// Not all zero.
	if SquaredL2Norm(v) == 0 {
		t.Error("XavierInit produced all zeros")
	}
}

func TestMatrixRowsAndMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Row(0), []float32{1, 2, 3})
	copy(m.Row(1), []float32{4, 5, 6})
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.Row(0)[0] != 9 {
		t.Error("Set did not write through to Row")
	}
	m.Set(0, 0, 1)

	dst := make([]float32, 2)
	MatVec(dst, m, []float32{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MatVec = %v", dst)
	}
}

// Property: MatVec and the Axpy sum Mᵀy = Σᵢ yᵢ·Mᵢ, the KvsAll backward
// pass's form, are adjoint: yᵀ(Mx) == (Mᵀy)ᵀx.
func TestMatrixPropertyAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 3+rng.Intn(5), 2+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		x := randomVec(rng, cols)
		y := randomVec(rng, rows)
		mx := MatVec(make([]float32, rows), m, x)
		mty := make([]float32, cols)
		for i, yi := range y {
			Axpy(yi, m.Row(i), mty)
		}
		return almostEqual(Dot(y, mx), Dot(mty, x), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNormalInitMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := make([]float32, 20000)
	NormalInit(rng, v, 2, 0.5)
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("sample mean %g, want ≈ 2", mean)
	}
	var varAcc float64
	for _, x := range v {
		d := float64(x) - mean
		varAcc += d * d
	}
	std := math.Sqrt(varAcc / float64(len(v)))
	if math.Abs(std-0.5) > 0.05 {
		t.Errorf("sample std %g, want ≈ 0.5", std)
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 7)
	c := m.Clone()
	m.Set(0, 0, 9)
	if c.At(0, 0) != 7 {
		t.Error("Clone shares storage with the original")
	}
	if c.Rows != 2 || c.Cols != 2 {
		t.Error("Clone lost dimensions")
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}

func TestSigmoid(t *testing.T) {
	if !almostEqual(Sigmoid(0), 0.5, 1e-6) {
		t.Errorf("Sigmoid(0) = %g", Sigmoid(0))
	}
	if Sigmoid(30) < 0.999 || Sigmoid(-30) > 0.001 {
		t.Error("Sigmoid tails wrong")
	}
}

func TestSoftplusStable(t *testing.T) {
	if got := Softplus(100); got != 100 {
		t.Errorf("Softplus(100) = %g, want 100 (linear regime)", got)
	}
	if got := Softplus(-100); got < 0 || got > 1e-30 {
		t.Errorf("Softplus(-100) = %g, want ~0", got)
	}
	if !almostEqual(Softplus(0), float32(math.Ln2), 1e-6) {
		t.Errorf("Softplus(0) = %g, want ln 2", Softplus(0))
	}
}

// Property: softplus'(x) == sigmoid(x) (finite-difference check), the
// identity both logistic-loss gradients rely on.
func TestPropertySoftplusDerivativeIsSigmoid(t *testing.T) {
	f := func(x float32) bool {
		if x > 20 || x < -20 {
			x = float32(math.Mod(float64(x), 20))
		}
		const h = 1e-3
		fd := (Softplus(x+h) - Softplus(x-h)) / (2 * h)
		return almostEqual(fd, Sigmoid(x), 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the Cauchy–Schwarz inequality |a·b| ≤ ‖a‖‖b‖ holds.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a, b := randomVec(rng, n), randomVec(rng, n)
		lhs := math.Abs(float64(Dot(a, b)))
		rhs := float64(L2Norm(a)) * float64(L2Norm(b))
		return lhs <= rhs*(1+1e-4)+1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
