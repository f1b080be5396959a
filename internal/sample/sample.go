// Package sample provides weighted discrete sampling primitives. The fact
// discovery algorithm draws subject and object candidates with probabilities
// proportional to strategy-specific weights (entity frequency, degree,
// triangle counts, …); this package supplies two interchangeable samplers —
// Vose's alias method (O(1) per draw after O(n) setup) and inverse-CDF
// binary search (O(log n) per draw) — plus a helper that draws a set of
// distinct values, mirroring NumPy's choice-then-unique behaviour in
// AmpliGraph's discover_facts.
package sample

import (
	"fmt"
	"math/rand"
	"sort"
)

// Weighted draws indices in [0, n) with fixed relative weights.
type Weighted interface {
	// Draw returns one index distributed proportionally to the weights.
	Draw(rng *rand.Rand) int
	// Len returns the number of categories n.
	Len() int
}

// NewAlias builds a Vose alias sampler over weights. Weights must be
// non-negative with a positive sum.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sample: empty weight vector")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sample: negative weight %g at index %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("sample: weights sum to zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		// Only reachable through floating-point round-off.
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Alias is Vose's alias-method sampler: constant-time draws after linear
// setup. It is the default sampler for the discovery strategies.
type Alias struct {
	prob  []float64
	alias []int
}

// Draw implements Weighted.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len implements Weighted.
func (a *Alias) Len() int { return len(a.prob) }

// NewCDF builds an inverse-CDF sampler (binary search over the cumulative
// weights). Kept as the ablation baseline against Alias.
func NewCDF(weights []float64) (*CDF, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sample: empty weight vector")
	}
	c := &CDF{cum: make([]float64, n)}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sample: negative weight %g at index %d", w, i)
		}
		sum += w
		c.cum[i] = sum
	}
	if sum <= 0 {
		return nil, fmt.Errorf("sample: weights sum to zero")
	}
	c.total = sum
	return c, nil
}

// CDF samples by binary search over cumulative weights.
type CDF struct {
	cum   []float64
	total float64
}

// Draw implements Weighted.
func (c *CDF) Draw(rng *rand.Rand) int {
	u := rng.Float64() * c.total
	return sort.SearchFloat64s(c.cum, u)
}

// Len implements Weighted.
func (c *CDF) Len() int { return len(c.cum) }

// DistinctDraws draws from w until it has collected k distinct indices or has
// made 50·k draws, whichever comes first, and returns the distinct indices in
// draw order. This mirrors AmpliGraph's sampling step, where duplicate draws
// collapse in the subsequent mesh-grid construction. If k >= w.Len() the
// result is capped at w.Len() distinct values (given enough draws), so that,
// not k, sizes it.
func DistinctDraws(w Weighted, rng *rand.Rand, k int) []int {
	if k <= 0 {
		return nil
	}
	n := min(k, w.Len())
	seen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for attempt := 0; attempt < 50*k && len(out) < k; attempt++ {
		i := w.Draw(rng)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// Uniform returns a Weighted assigning equal probability to n categories.
func Uniform(n int) (Weighted, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sample: Uniform needs n > 0, got %d", n)
	}
	return uniform(n), nil
}

type uniform int

func (u uniform) Draw(rng *rand.Rand) int { return rng.Intn(int(u)) }
func (u uniform) Len() int                { return int(u) }
