package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles when even); NaN
// for no samples, so a phase with no successful iteration cannot pass for a
// measurement.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method —
// the one Python's statistics.quantiles(xs, n=4) uses, which is what the
// acceptance check applies to the ten-seed spreads. Fewer than two samples
// have no spread: both quartiles collapse onto the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// hiTail is how many samples must lie beyond the reported high percentile.
const hiTail = 10

// hiPercentile returns the highest percentile that still has hiTail samples
// beyond it, and which percentile that is. With fewer than 2*hiTail samples
// such a percentile would sit below the median and say nothing about the
// tail, so the median itself (pct 50) is returned instead.
func hiPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*hiTail {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	return s[n-1-hiTail], 100 * float64(n-hiTail) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
