package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct {
		p    float64
		want float64
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := beyond(hundred, 99); got != 1 {
		t.Errorf("beyond p99 of 1..100 = %d, want 1", got)
	}
	if got := meanAbove(hundred, 97); got != 99 {
		t.Errorf("mean above 97 of 1..100 = %v, want 99", got)
	}
	if got := meanAbove(hundred, 100); got != 100 {
		t.Errorf("mean above the maximum = %v, want the maximum", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := percentile([]float64{1, math.Inf(1)}, 50); got != 1 {
		t.Errorf("a failed (+Inf) sample must sort last: p50 = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
