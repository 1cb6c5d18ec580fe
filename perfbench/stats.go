package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile for it
// to be reported: a p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the p-th quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses when fewer than minTail
// samples lie beyond p, because such a percentile is set by a handful of
// samples and does not repeat from run to run. +Inf samples are allowed and
// sort last (a failed operation misses every limit).
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	// The epsilon keeps 100 samples valid for p90 despite 1-0.9 < 0.1.
	beyond := float64(len(xs))*(1-p) + 1e-9
	if beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f",
			p*100, minTail, len(xs), beyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) || frac == 0 {
		return s[lo], nil
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1), nil
	}
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the middle of xs (mean of the two middle values for an even
// count), with no sample-count floor: it is used for small repeated
// measurements such as set-up time, where the median of three is the point.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// infOr returns v, or the largest float when v is +Inf: JSON has no
// infinity, and a latency that missed every limit must still read as worse
// than any measured one.
func infOr(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
