package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median is the 50th percentile of vals (any order); 0 when vals is empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the first and third quartile of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), which is
// what the benchmark driver computes spreads with. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		// i-th of 4 cut points over m = n+1 positions.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailPermille are the tail candidates p90, p99 and p99.9, lowest first, in
// thousandths so that "ten samples beyond" is exact integer arithmetic.
var tailPermille = []int{900, 990, 999}

// tailPercentile picks the highest of p90/p99/p99.9 that has at least ten
// samples beyond it and returns it with its value. ok is false when even p90
// has fewer than ten samples beyond it (fewer than 100 samples in all).
func tailPercentile(sorted []float64) (pct, value float64, ok bool) {
	for _, pm := range tailPermille {
		if len(sorted)*(1000-pm) < 10*1000 {
			break
		}
		pct, ok = float64(pm)/10, true
		value = percentile(sorted, pct)
	}
	return pct, value, ok
}

// sliceOf maps a completion offset inside a window onto one of n equal
// slices; offsets at or past the window end fall outside (-1).
func sliceOf(offset, window int64, n int) int {
	if offset < 0 || offset >= window {
		return -1
	}
	return int(offset * int64(n) / window)
}
