package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile (p95 needs 200 samples, p99 needs 1000).
// The epsilon keeps 1000 x 0.01 = 10 on the right side of float rounding.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// percentile returns the p-th percentile of sorted (ascending) values by
// the nearest-rank rule, so the result is always a value that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of unsorted values; the mean of the middle two for an even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
