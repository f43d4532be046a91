package main

import (
	"math"
	"sort"
)

// tailBeyond is the guide's rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending without touching the argument.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples; the epsilon keeps 0.9*100 from rounding up to 91.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// median is the 0.5 nearest-rank percentile of unsorted samples.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// supports reports whether n samples leave tailBeyond samples beyond the
// q-quantile, i.e. whether that percentile may be reported at all.
func supports(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= tailBeyond
}

// highestSupported returns the highest of the usual tail percentiles that n
// samples support under the ten-samples-beyond rule, or 0 when not even p90
// is supported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.90, 0.95, 0.99, 0.999} {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which is what the driver uses to judge run-to-run
// spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := sortedCopy(xs)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
