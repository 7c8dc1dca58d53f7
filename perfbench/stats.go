package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// roundQuantile is the median over a run's rounds of each round's
// q-quantile, and the number of samples behind it. A round hit by a burst
// of host stalls moves it less than it would move the pooled quantile.
func roundQuantile(rounds [][]float64, q float64) (float64, int) {
	v := make([]float64, len(rounds))
	n := 0
	for i, xs := range rounds {
		v[i] = quantile(xs, q)
		n += len(xs)
	}
	return median(v), n
}
