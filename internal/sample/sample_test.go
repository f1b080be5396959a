package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// chiSquare draws n samples and returns the chi-square statistic against
// the expected distribution.
func chiSquare(t *testing.T, w Weighted, weights []float64, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		idx := w.Draw(rng)
		if idx < 0 || idx >= len(weights) {
			t.Fatalf("Draw returned out-of-range index %d", idx)
		}
		counts[idx]++
	}
	var total float64
	for _, x := range weights {
		total += x
	}
	var chi2 float64
	for i, c := range counts {
		expected := weights[i] / total * float64(n)
		if expected == 0 {
			if c != 0 {
				t.Fatalf("sampled index %d with zero weight", i)
			}
			continue
		}
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

func testDistribution(t *testing.T, build func([]float64) (Weighted, error)) {
	t.Helper()
	weights := []float64{1, 2, 3, 4, 0, 10}
	w, err := build(weights)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// 5 non-zero categories → 4 dof; chi2 < 30 is an extremely loose bound
	// (p ≈ 5e-6) that still catches broken samplers.
	if chi2 := chiSquare(t, w, weights, 100000, 7); chi2 > 30 {
		t.Errorf("chi-square = %.1f, distribution looks wrong", chi2)
	}
	if w.Len() != len(weights) {
		t.Errorf("Len = %d, want %d", w.Len(), len(weights))
	}
}

func TestAliasDistribution(t *testing.T) {
	testDistribution(t, func(ws []float64) (Weighted, error) { return NewAlias(ws) })
}

func TestCDFDistribution(t *testing.T) {
	testDistribution(t, func(ws []float64) (Weighted, error) { return NewCDF(ws) })
}

func TestSamplerErrors(t *testing.T) {
	for _, build := range []func([]float64) (Weighted, error){
		func(ws []float64) (Weighted, error) { return NewAlias(ws) },
		func(ws []float64) (Weighted, error) { return NewCDF(ws) },
	} {
		if _, err := build(nil); err == nil {
			t.Error("accepted empty weights")
		}
		if _, err := build([]float64{1, -1}); err == nil {
			t.Error("accepted negative weight")
		}
		if _, err := build([]float64{0, 0}); err == nil {
			t.Error("accepted all-zero weights")
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single-category sampler returned nonzero index")
		}
	}
}

// Property: Alias and CDF agree in distribution (compare empirical
// frequencies on random weight vectors).
func TestPropertyAliasMatchesCDF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 10
		}
		weights[rng.Intn(n)] += 1 // ensure positive sum
		a, err1 := NewAlias(weights)
		c, err2 := NewCDF(weights)
		if err1 != nil || err2 != nil {
			return false
		}
		const draws = 20000
		ca := make([]int, n)
		cc := make([]int, n)
		rngA := rand.New(rand.NewSource(seed + 1))
		rngC := rand.New(rand.NewSource(seed + 2))
		for i := 0; i < draws; i++ {
			ca[a.Draw(rngA)]++
			cc[c.Draw(rngC)]++
		}
		for i := 0; i < n; i++ {
			if math.Abs(float64(ca[i]-cc[i]))/draws > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDistinctDrawsNoDuplicates(t *testing.T) {
	a, err := NewAlias([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	got := DistinctDraws(a, rng, 5)
	if len(got) != 5 {
		t.Fatalf("got %d draws, want 5", len(got))
	}
	seen := make(map[int]bool)
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestDistinctDrawsCapsAtPopulation(t *testing.T) {
	a, err := NewAlias([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	got := DistinctDraws(a, rng, 10)
	if len(got) != 3 {
		t.Fatalf("got %d distinct draws from 3 categories, want 3", len(got))
	}
}

func TestDistinctDrawsZeroK(t *testing.T) {
	a, _ := NewAlias([]float64{1})
	if got := DistinctDraws(a, rand.New(rand.NewSource(1)), 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

// Property: zero-weight categories are never drawn by either sampler.
func TestPropertyZeroWeightNeverDrawn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		weights := []float64{0, 3, 0, 5, 0}
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		c, err := NewCDF(weights)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			if idx := a.Draw(rng); weights[idx] == 0 {
				return false
			}
			if idx := c.Draw(rng); weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
