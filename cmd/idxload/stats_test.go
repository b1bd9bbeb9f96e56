package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(vals, n=4) from CPython.
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5}, // order must not matter
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{3, 9}, 1.5, 10.5}, // extrapolates, as Python does
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{99, 0, false},   // p90 would have 9.9 beyond
		{100, 90, true},  // exactly ten beyond p90
		{999, 90, true},  // p99 would have 9.99 beyond
		{1000, 99, true}, // exactly ten beyond p99
		{9999, 99, true}, // p99.9 would have 9.999 beyond
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || pct != c.pct {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
		}
		if ok && math.Abs(v-c.pct/100*float64(c.n-1)) > 1e-9 {
			t.Errorf("n=%d: p%v = %v on a ramp", c.n, pct, v)
		}
	}
}

func TestSlicedSplitsLongOpsAcrossSlices(t *testing.T) {
	// One op spanning the whole 5 s window carries 500 points: every slice
	// must see 100 points/s, not one slice all of it.
	r := phaseResult{samples: []opSample{{end: 5e9, lat: 5e9, points: 500, late: true}}}
	pps, p50 := r.sliced(5e9)
	for i, v := range pps {
		if math.Abs(v-100) > 1e-9 {
			t.Errorf("slice %d: %v points/s, want 100", i, v)
		}
	}
	if len(p50) != 0 {
		t.Errorf("a late op has no say in latency, got %v", p50)
	}
	if got := r.latenciesMS(); len(got) != 0 {
		t.Errorf("latenciesMS counts the late op: %v", got)
	}
}
