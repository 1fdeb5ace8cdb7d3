package main

import (
	"sort"
	"time"

	"powl/internal/stats"
)

// median returns the middle of xs (mean of the two middles for even n);
// 0 for an empty slice.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the driver uses for its spread check. Fewer than two values have no
// spread: both quartiles equal the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// cut point i of 4 at position i*(n+1)/4, 1-based; like Python,
		// the weight is taken after j is clamped, so the ends extrapolate.
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
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// tailCandidates are the percentiles a latency sample may be summarized at,
// ascending, in tenths of a percent so the arithmetic below is exact.
var tailCandidates = []int{500, 900, 990, 999}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it among n, so the reported tail is never one or
// two outliers. Below twenty samples even the median fails that test and 50
// is returned as the floor.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile (nearest rank) of durations in
// milliseconds; sorted must be ascending. 0 for an empty sample.
func percentile(sorted []time.Duration, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(float64(n)*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return ms(sorted[rank])
}

// latencySummary is a latency sample reduced to what is reported.
type latencySummary struct {
	n       int
	p50     float64 // ms
	tail    float64 // ms, at tailPct
	tailPct float64
}

func summarize(ds []time.Duration) latencySummary {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p := tailPercentile(len(s))
	return latencySummary{n: len(s), p50: percentile(s, 50), tail: percentile(s, p), tailPct: p}
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
