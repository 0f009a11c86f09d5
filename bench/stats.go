package main

import (
	"math"
	"sort"
)

// median returns the middle of v (the mean of the two middle values for
// an even count) and 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of v.
// It refuses (ok=false) when fewer than minBeyond samples lie beyond the
// returned one.
func percentile(v []float64, p float64) (value float64, ok bool) {
	n := len(v)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank-1], true
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median — the run-to-run spread the compare tool
// holds against a metric's bound. It is 0 for fewer than two values.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles(v, n=4).
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
