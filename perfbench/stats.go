package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to describe a tail rather than a single outlier.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
// NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// minSamples is the smallest sample count that leaves minTail samples
// beyond the p-th percentile.
func minSamples(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
