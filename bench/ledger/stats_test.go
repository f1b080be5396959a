package ledger

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {1800, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The sample counts the serve_mixed schedule is sized for.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false}, {100, 90, true}, {99, 90, false}} {
		if got := TailSupported(c.n, c.p); got != c.want {
			t.Errorf("TailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Median(xs); got != 5.5 {
		t.Errorf("Median = %g, want 5.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median of three = %g, want 2", got)
	}
	if Median(nil) != 0 || Percentile(nil, 99) != 0 {
		t.Error("empty input must give 0")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}, 10.375, 13.25},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 8},
	} {
		q1, q3, ok := Quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if s, ok := Spread([]float64{10, 12, 11, 15, 9, 13, 14, 10.5, 11.5, 12.5}); !ok || math.Abs(s-(13.25-10.375)/11.75) > 1e-12 {
		t.Errorf("Spread = %g, %v", s, ok)
	}
}
