// Package ledger holds what kgbench and cmp share: the BENCHMARK.json
// contract, the ledger file format, and the statistics both sides must
// compute identically (medians, quartile spread, the percentile rule).
package ledger

import (
	"math"
	"sort"
)

// Median returns the median of xs (mean of the two middle values for an even
// count), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// percentileLadder is the set of percentiles a latency is ever reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// HighestPercentile applies the reporting rule for tail latencies: the
// highest percentile of the ladder that still has at least ten samples beyond
// it. With fewer than twenty samples only the median qualifies.
func HighestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder[1:] {
		if TailSupported(n, p) {
			best = p
		}
	}
	return best
}

// TailSupported reports whether n samples leave at least ten beyond the
// p-th percentile.
func TailSupported(n int, p float64) bool {
	// The epsilon absorbs the binary rounding of p/100 (1000·(1−0.99) is
	// 9.999…, which must still count as ten).
	return float64(n)*(1-p/100)+1e-9 >= 10
}

// Quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so spreads computed
// here match the ones the benchmark contract is checked with. It needs at
// least two values.
func Quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	at := func(i int) float64 {
		// CPython: j = i·(n+1) div 4 clamped to 1..n-1, delta taken after
		// the clamp (so tiny samples extrapolate, exactly as Python does).
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// Spread is the interquartile distance of xs as a share of their median,
// the noise measure the contract bounds. ok is false when it is undefined
// (fewer than two values or a zero median).
func Spread(xs []float64) (spread float64, ok bool) {
	q1, q3, ok := Quartiles(xs)
	m := Median(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / m), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
