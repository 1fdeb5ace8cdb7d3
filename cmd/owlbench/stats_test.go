package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - got) / 100; c.n >= 20 && beyond < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves only %.1f samples beyond it", c.n, got, beyond)
		}
	}
}

func TestSummarizeReportsThePickedPercentile(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond // descending: summarize must sort
	}
	s := summarize(ds)
	if s.n != 1000 || s.tailPct != 99 || s.p50 != 500 || s.tail != 990 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 tail=990 at p99", s)
	}
}

// The driver computes spread with Python's statistics.quantiles(xs, n=4);
// these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 7, 1}, 1, 7},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 6.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
