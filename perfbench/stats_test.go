package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"maest/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	// 1..100: the nearest-rank q-quantile of n equally spaced samples
	// is the ⌈q·n⌉-th sample.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.25, 25}, {0.5, 50}, {0.501, 51}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %g, want 7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestSummarizeKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Uniform on [0, 1000): p50 ≈ 500 and p99 ≈ 990 within sampling
	// error for 20k samples.
	u := make([]float64, 20000)
	for i := range u {
		u[i] = rng.Float64() * 1000
	}
	s := Summarize(u)
	if s.N != len(u) || math.Abs(s.P50-500) > 15 || math.Abs(s.P99-990) > 5 {
		t.Errorf("uniform summary %+v", s)
	}
	// Exponential with mean 100: median 100·ln 2, p99 100·ln 100.
	e := make([]float64, 20000)
	for i := range e {
		e[i] = rng.ExpFloat64() * 100
	}
	s = Summarize(e)
	if math.Abs(s.P50-100*math.Ln2) > 4 || math.Abs(s.P99-100*math.Log(100)) > 25 {
		t.Errorf("exponential summary %+v", s)
	}
	// Summarize must not reorder its input.
	if sort.Float64sAreSorted(e) {
		t.Error("Summarize sorted the caller's slice")
	}
}

// TestNoBucketInterpolation pins that quantiles come from the raw
// samples: every sample sits strictly inside one obs.DefBuckets
// bucket, where a histogram estimate would interpolate to some other
// value, and the quantile still answers a measured sample exactly.
func TestNoBucketInterpolation(t *testing.T) {
	samples := []float64{0.000300, 0.000310, 0.000320, 0.000330, 0.002700}
	for _, v := range samples {
		for _, b := range obs.DefBuckets {
			if v == b {
				t.Fatalf("sample %g lies on a bucket bound", v)
			}
		}
	}
	s := Summarize(samples)
	if s.P50 != 0.000320 {
		t.Errorf("p50 = %g, want the measured 0.000320", s.P50)
	}
	if s.P99 != 0.002700 {
		t.Errorf("p99 = %g, want the measured 0.002700", s.P99)
	}
}

func TestRatioAndMean(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if Mean(nil) != 0 || Mean([]float64{1, 2, 6}) != 3 {
		t.Error("mean")
	}
}
