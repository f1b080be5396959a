// Package fft holds no code: HolE's circular correlation and convolution are
// vecmath.Correlate and vecmath.Convolve, one direct kernel pair at every
// length. These tests keep the properties of circular correlation that this
// package checked when it computed them, under their old names, now against
// those kernels; vecmath.TestCircularKernelsMatchReference holds the kernels
// to the modular reference bit for bit on special operands too.
package fft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// correlationNaive is the definition, (s ⋆ o)[k] = Σᵢ s[i]·o[(i+k) mod n],
// summed in float64 over increasing i.
func correlationNaive(s, o []float32) []float32 {
	n := len(s)
	dst := make([]float32, n)
	for k := range dst {
		var acc float64
		for i := 0; i < n; i++ {
			acc += float64(s[i]) * float64(o[(i+k)%n])
		}
		dst[k] = float32(acc)
	}
	return dst
}

func TestCircularCorrelationKnown(t *testing.T) {
	// s = [1,0,0,0]: (s ⋆ o)[k] = o[k].
	s := []float32{1, 0, 0, 0}
	o := []float32{5, 6, 7, 8}
	dst := vecmath.Correlate(make([]float32, 4), s, o)
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
		s, o := randVec(rng, n), randVec(rng, n)
		fast := vecmath.Correlate(make([]float32, n), s, o)
		slow := correlationNaive(s, o)
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
	s, o := randVec(rng, 7), randVec(rng, 7)
	got := vecmath.Correlate(make([]float32, 7), s, o)
	want := correlationNaive(s, o)
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
		s, o := randVec(rng, n), randVec(rng, n)
		corr := vecmath.Correlate(make([]float32, n), s, o)
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
			s, o := randVec(rng, n), randVec(rng, n)
			ab := vecmath.Convolve(make([]float32, n), s, o)
			ba := vecmath.Convolve(make([]float32, n), o, s)
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
