package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// which is what the acceptance check of this benchmark uses. It needs at
// least two values; with fewer both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tail returns the highest whole percentile of xs that still has at least
// ten samples beyond it (p95 of 240, p98 of 720), and the value at it.
// With fewer than twenty samples there is none and both are 0.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 0, 0
	}
	s := sorted(xs)
	p := 100 * (n - 10) / n
	idx := (p*n+99)/100 - 1
	return float64(p), s[idx]
}
