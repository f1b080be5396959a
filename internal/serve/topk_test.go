package serve

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableTop is the reference topK is held to: a stable sort of every entity
// ID, NaN scores last and the rest by score descending, so that equal scores
// keep ascending IDs, cut to k.
func stableTop(scores []float32, k int) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		return !math.IsNaN(float64(sa)) && (math.IsNaN(float64(sb)) || sa > sb)
	})
	return order[:min(k, len(order))]
}

// TestTopKMatchesStableSort covers heavy ties, ±0, ±Inf and NaN scores, and
// k from 0 past |E|.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for rep := 0; rep < 20; rep++ {
			scores := make([]float32, n)
			for i := range scores {
				switch rng.Intn(4) {
				case 0:
					scores[i] = specials[rng.Intn(len(specials))]
				case 1:
					scores[i] = float32(rng.Intn(5)) // ties
				default:
					scores[i] = float32(rng.NormFloat64())
				}
			}
			for _, k := range []int{0, 1, 2, 3, 10, n - 1, n, n + 3} {
				got, want := topK(scores, k), stableTop(scores, k)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d: topK = %v, stable sort %v\nscores=%v", n, k, got, want, scores)
				}
			}
		}
	}
}
