package main

import (
	"math"
	"sort"
)

// percentile is the one percentile convention of the benchmark:
// nearest-rank, sorted[ceil(q·n)−1]. It sorts a copy; an empty sample
// reads 0.
func percentile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
