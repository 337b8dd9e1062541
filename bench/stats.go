package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported (choosing-metrics guide §1).
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of ascending s by linear
// interpolation between closest ranks. s must be non-empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of xs (unsorted); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	// The epsilon keeps 0.9*100 (90.00000000000001 in floating point) at 90.
	return n-int(math.Ceil(q*float64(n)-1e-9)) >= minBeyond
}

// highestSupported returns the highest of 0.999, 0.99, 0.9 that n samples
// support, or 0 when none does.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if supported(n, q) {
			return q
		}
	}
	return 0
}

// tail returns the q-quantile of xs when the sample supports it and the
// maximum otherwise, so a short run still reports its worst case under the
// same name. ok says which it was.
func tail(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	if supported(len(s), q) {
		return quantile(s, q), true
	}
	return s[len(s)-1], false
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the driver's spread check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is (q3-q1)/median, the run-to-run measure the benchmark's bounds
// are compared against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
