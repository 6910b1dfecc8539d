package main

import "slices"

// pctl returns the q-quantile of xs by the nearest-rank method (the
// value at rank ceil(q*n)), the convention obs histograms use. xs is
// sorted in place; an empty slice yields 0.
func pctl(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(q*float64(len(xs)) + 0.9999999)
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) and
// statistics.median do (the "exclusive" method), so spreads printed by
// the compare mode match the ones an acceptance script computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if len(s)%2 == 1 {
		med = s[len(s)/2]
	} else {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	ld, n := len(s), 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), med, q(3)
}
