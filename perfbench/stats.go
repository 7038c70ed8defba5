package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
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

// percentile is the nearest-rank p-th percentile of xs (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps products such as 99.9% of 10,000 from rounding up a
// whole rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// minTail is how many samples must lie beyond a reported tail
// percentile: fewer, and the figure is one or two outliers, not a tail.
const minTail = 10

// supported reports whether n samples carry the p-th percentile: at
// least minTail of them lie beyond it.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
