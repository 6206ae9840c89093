package main

import (
	"math"
	"sort"
)

// Quantile returns the nearest-rank q-quantile of samples sorted in
// ascending order: the smallest sample with at least ⌈q·n⌉ samples at
// or below it.  It never interpolates, so the answer is always one of
// the measured values — unlike a histogram quantile, which can only
// place it somewhere inside a bucket.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// Summary is the latency view of one sample set: its size and the
// nearest-rank median and 99th percentile.
type Summary struct {
	N   int
	P50 float64
	P99 float64
}

// Summarize sorts a copy of samples and reads its quantiles.
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{N: len(s), P50: Quantile(s, 0.50), P99: Quantile(s, 0.99)}
}

// Median is the nearest-rank median of samples (NaN when empty).
func Median(samples []float64) float64 { return Summarize(samples).P50 }

// Mean is the arithmetic mean of samples (0 when empty).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ratio divides, answering 0 for an empty denominator: a layer that
// did no work in a workload reports a zero ratio, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
