package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// correlateRef and convolveRef are the circular kernels' definitions as
// modular loops, each output summed in float64 over increasing i: the
// reference Correlate and Convolve are held to.
func correlateRef(a, b []float32) []float32 {
	l := len(a)
	dst := make([]float32, l)
	for k := range dst {
		var acc float64
		for i := 0; i < l; i++ {
			acc += float64(a[i]) * float64(b[(i+k)%l])
		}
		dst[k] = float32(acc)
	}
	return dst
}

func convolveRef(a, b []float32) []float32 {
	l := len(a)
	dst := make([]float32, l)
	for k := range dst {
		var acc float64
		for i := 0; i < l; i++ {
			acc += float64(a[i]) * float64(b[((k-i)%l+l)%l])
		}
		dst[k] = float32(acc)
	}
	return dst
}

// checkCircular holds Correlate and Convolve of (a, b) to the modular
// references: bit for bit wherever the reference is not NaN (±0,
// subnormals and infinities included), and NaN wherever it is — which NaN
// survives depends on which operand a multiply or add holds it in, and
// the definition fixes no payload.
func checkCircular(t *testing.T, a, b []float32) {
	t.Helper()
	for _, k := range []struct {
		name string
		run  func(dst, a, b []float32) []float32
		ref  func(a, b []float32) []float32
	}{{"Correlate", Correlate, correlateRef}, {"Convolve", Convolve, convolveRef}} {
		got, want := k.run(make([]float32, len(a)), a, b), k.ref(a, b)
		for i, w := range want {
			if w != w {
				if got[i] == got[i] {
					t.Fatalf("l=%d: %s[%d] = %g, reference NaN", len(a), k.name, i, got[i])
				}
			} else if math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("l=%d: %s[%d] = %x (%g), reference %x (%g)",
					len(a), k.name, i, math.Float32bits(got[i]), got[i], math.Float32bits(w), w)
			}
		}
	}
}

// TestCircularKernelsMatchReference runs checkCircular at every width from
// 1 to 130 on normal operands and, at a few widths, on operands that are
// special a quarter or all of the time. A unit impulse gives known values:
// e₀ ⋆ b = e₀ ∗ b = b exactly, and lag 0 of a ⋆ b is the float64 dot
// product. Convolution commutes up to rounding.
func TestCircularKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for l := 1; l <= 130; l++ {
		for rep := 0; rep < 4; rep++ {
			checkCircular(t, randomVec(rng, l), randomVec(rng, l))
		}
	}
	for _, l := range []int{1, 3, 4, 7, 8, 12, 63, 64, 65} {
		for _, quarters := range []int{1, 4} {
			a, b := randomVec(rng, l), randomVec(rng, l)
			for _, v := range [][]float32{a, b} {
				for i := range v {
					if rng.Intn(4) < quarters {
						v[i] = axpySpecials[rng.Intn(len(axpySpecials))]
					}
				}
			}
			checkCircular(t, a, b)
		}
	}

	for _, l := range []int{4, 7, 64} {
		e0, b := make([]float32, l), randomVec(rng, l)
		e0[0] = 1
		for _, got := range [][]float32{
			Correlate(make([]float32, l), e0, b), Convolve(make([]float32, l), e0, b),
		} {
			for i := range b {
				if got[i] != b[i] {
					t.Fatalf("l=%d: impulse output[%d] = %g, want %g", l, i, got[i], b[i])
				}
			}
		}
		a := randomVec(rng, l)
		var dot float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
		}
		if got := Correlate(make([]float32, l), a, b)[0]; got != float32(dot) {
			t.Errorf("l=%d: lag 0 = %g, dot product %g", l, got, float32(dot))
		}
		ab, ba := Convolve(make([]float32, l), a, b), Convolve(make([]float32, l), b, a)
		for i := range ab {
			if math.Abs(float64(ab[i]-ba[i])) > 1e-5*(1+math.Abs(float64(ab[i]))) {
				t.Errorf("l=%d: (a ∗ b)[%d] = %g, (b ∗ a)[%d] = %g", l, i, ab[i], i, ba[i])
			}
		}
	}
}

// Properties of circular correlation. The names are those the tests had
// when an FFT computed it.

func TestCircularCorrelationKnown(t *testing.T) {
	// s = [1,0,0,0]: (s ⋆ o)[k] = o[k].
	s := []float32{1, 0, 0, 0}
	o := []float32{5, 6, 7, 8}
	dst := Correlate(make([]float32, 4), s, o)
	for i := range o {
		if dst[i] != o[i] {
			t.Errorf("dst[%d] = %g, want %g", i, dst[i], o[i])
		}
	}
}

// Property: the kernel agrees with the naive definition bit for bit at
// power-of-two lengths, where the FFT once ran.
func TestPropertyCorrelationFFTMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6)) // 2..64
		s, o := randomVec(rng, n), randomVec(rng, n)
		fast := Correlate(make([]float32, n), s, o)
		slow := correlateRef(s, o)
		for i := range fast {
			if math.Float32bits(fast[i]) != math.Float32bits(slow[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Non-power-of-two lengths run the same kernel and must still match the
// definition.
func TestCorrelationNonPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, o := randomVec(rng, 7), randomVec(rng, 7)
	got := Correlate(make([]float32, 7), s, o)
	want := correlateRef(s, o)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("got[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// Property: lag 0 of the correlation is the dot product: (s ⋆ o)[0] == s·o,
// summed in float64 and rounded once.
func TestPropertyCorrelationZeroLag(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		s, o := randomVec(rng, n), randomVec(rng, n)
		corr := Correlate(make([]float32, n), s, o)
		var dot float64
		for i := range s {
			dot += float64(s[i]) * float64(o[i])
		}
		return corr[0] == float32(dot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: convolution commutes: s ∗ o == o ∗ s, up to the rounding of
// summing the same products in another order.
func TestPropertyConvolutionCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{8, 7} {
			s, o := randomVec(rng, n), randomVec(rng, n)
			ab := Convolve(make([]float32, n), s, o)
			ba := Convolve(make([]float32, n), o, s)
			for i := range ab {
				if math.Abs(float64(ab[i]-ba[i])) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
