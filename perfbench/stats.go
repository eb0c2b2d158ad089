package main

import (
	"math"
	"sort"
)

// rank returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample, and the number of samples strictly beyond that rank.
func rank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n - 1 - i
}

// tailLadder is the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail reports a sorted sample's tail: the highest percentile of the
// ladder that has at least minBeyond samples beyond it. A sample too
// small for any of them reports its maximum as percentile 100.
func tail(sorted []float64) (pct, v float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	for _, p := range tailLadder {
		if v, beyond := rank(sorted, p); beyond >= minBeyond {
			return p, v
		}
	}
	return 100, sorted[len(sorted)-1]
}

// median of an unsorted sample (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
