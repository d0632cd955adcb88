package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile (p in [0,1]) of xs, which
// need not be sorted; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 50th percentile with the two middle values of an even
// sample averaged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (exclusive), which the
// driver uses for its spread: position k(n+1)/4, linearly interpolated.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqr is the inter-quartile range of xs.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// summary is one printed metric: the median of its per-window (or
// per-request) values, their inter-quartile range, and how many there
// were.
type summary struct {
	Value  float64 `json:"value"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
	// NA marks a metric that does not exist on this workload (printed
	// n/a; its value is 0).
	NA bool `json:"na,omitempty"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return notApplicable
	}
	return summary{Value: median(xs), Spread: iqr(xs), N: len(xs)}
}

// single is a metric with one observation (a count, a ratio).
func single(v float64) summary { return summary{Value: v, N: 1} }

var notApplicable = summary{NA: true}
