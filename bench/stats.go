package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// It sorts a copy, so xs is left as given. An empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly greater than v, so a result can
// show how many samples lie past a reported percentile.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// meanAbove returns the mean of the samples greater than v, or v when
// there are none.
func meanAbove(xs []float64, v float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > v {
			sum += x
			n++
		}
	}
	if n == 0 {
		return v
	}
	return sum / float64(n)
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length input. An empty input gives NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads computed here match the ones an external checker
// computes from the same values. One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		// Clamp j to [1, len-1] before computing delta, exactly as Python
		// does; for tiny inputs that extrapolates, as Python's does too.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
