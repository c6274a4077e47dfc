package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// the nearest-rank rule; 0 when the slice is empty.
func percentile[T int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// pmax is the highest percentile of n samples that still has at least ten
// samples beyond it — the most a run of that length can support; 0 when
// the run is too short to support any.
func pmax(n int) float64 {
	if n < 20 {
		return 0
	}
	return float64(n-10) / float64(n)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// "exclusive" method), which is how the benchmark's acceptance rule is
// stated. With fewer than two values all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise the bounds are set against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
