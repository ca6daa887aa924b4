// Package metrics holds the Deep500 measurements (paper §IV-B, challenge
// 2): order statistics with the paper's evaluation methodology (Sampler
// and Summarize give medians and nonparametric 95% confidence intervals
// over 30 re-runs, §V-A; Percentile and MAD), and one type per measured
// quantity: WallclockTime (Levels 0–1), FrameworkOverhead (Level 1),
// Series for accuracy and loss curves, DatasetLatency, DatasetBias and
// TimeToAccuracy (Level 2), and CommunicationVolume (Level 3). The types
// share no interface; each caller reads the one it records.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// DefaultReruns is the paper's measurement count for non-distributed
// experiments (§V-A: "we run them 30 times and report median results and
// nonparametric 95% confidence intervals").
const DefaultReruns = 30

// Summary holds order statistics of a sample set. Median is the middle
// sample (the mean of the two middle samples for an even count); the
// quantiles P25, P75, P95 and the MAD are Percentile's nearest-rank ones.
type Summary struct {
	Name              string
	Unit              string
	N                 int
	Mean              float64
	Median            float64
	Min, Max          float64
	CI95Low, CI95High float64 // nonparametric CI of the median
	P25, P75          float64
	P95               float64
	MAD               float64 // median absolute deviation from the median
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: median %.4g %s (95%% CI [%.4g, %.4g], n=%d)",
		s.Name, s.Median, s.Unit, s.CI95Low, s.CI95High, s.N)
}

// Sampler accumulates float64 samples and computes summaries. The zero
// value is unusable; construct with NewSampler. Sampler is the reusable
// core most concrete metrics embed.
type Sampler struct {
	name    string
	unit    string
	samples []float64
}

// NewSampler returns an empty sampler.
func NewSampler(name, unit string) *Sampler {
	return &Sampler{name: name, unit: unit}
}

// Record adds one sample.
func (s *Sampler) Record(v float64) { s.samples = append(s.samples, v) }

// Summarize computes order statistics over the recorded samples.
func (s *Sampler) Summarize() Summary {
	sum := Summarize(s.samples)
	sum.Name = s.name
	sum.Unit = s.unit
	return sum
}

// Summarize computes order statistics (median, nonparametric 95% CI of the
// median, quartiles, extrema) for a sample set.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var mean float64
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(n)
	lo, hi := medianCIIndices(n)
	median := sorted[n/2]
	if n%2 == 0 {
		median = (sorted[n/2-1] + median) / 2
	}
	return Summary{
		N:        n,
		Mean:     mean,
		Median:   median,
		Min:      sorted[0],
		Max:      sorted[n-1],
		P25:      Percentile(sorted, 0.25),
		P75:      Percentile(sorted, 0.75),
		P95:      Percentile(sorted, 0.95),
		MAD:      MAD(sorted, median),
		CI95Low:  sorted[lo],
		CI95High: sorted[hi],
	}
}

// MAD returns the median absolute deviation of the samples from center, a
// dispersion estimate robust to outliers.
func MAD(samples []float64, center float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	dev := make([]float64, len(samples))
	for i, v := range samples {
		dev[i] = math.Abs(v - center)
	}
	sort.Float64s(dev)
	return Percentile(dev, 0.5)
}

// Distribution is a Summary that retains the raw (post-warmup) samples it
// was computed from, so experiment results can be exported into the
// machine-readable benchmark schema (internal/bench) instead of being
// collapsed to printed order statistics.
type Distribution struct {
	Summary
	Samples []float64
}

// Distribution returns the summary together with a copy of the raw samples.
func (s *Sampler) Distribution() Distribution {
	return Distribution{
		Summary: s.Summarize(),
		Samples: append([]float64(nil), s.samples...),
	}
}

// medianCIIndices returns the order-statistic indices bounding a ~95%
// nonparametric confidence interval of the median (binomial method,
// Hoefler & Belli, "Scientific benchmarking of parallel computing
// systems", SC'15 — the paper's reference [27]).
func medianCIIndices(n int) (lo, hi int) {
	if n == 1 {
		return 0, 0
	}
	z := 1.96
	d := z * math.Sqrt(float64(n)) / 2
	lo = int(math.Floor(float64(n)/2 - d))
	hi = int(math.Ceil(float64(n)/2+d)) - 1
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	return
}

// Percentile is the repository's one order-statistic convention, the one
// the benchmark documents: the nearest-rank q-quantile sorted[ceil(q·n)−1]
// of ascending data, q in [0, 1]. Every reported value is a sample; q ≤ 0
// reads the minimum, q ≥ 1 the maximum, and an empty slice the zero value.
func Percentile[T cmp.Ordered](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(q * float64(n)))
	return sorted[min(max(rank, 1), n)-1]
}
