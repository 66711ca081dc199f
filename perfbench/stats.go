package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p90 over fewer than 100 ops is one or two unlucky ops, not
// a tail.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs and whether at least minTail samples rank beyond it. A percentile
// without that tail is not reported.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := sortedCopy(xs)
	// The epsilon keeps a product like 0.9×100 that lands a hair above an
	// integer from moving the rank up one.
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minTail
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[0]
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[len(xs)-1]
}
