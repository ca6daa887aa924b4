package metrics

import "math"

// SeriesPoint is one observation of a training-curve metric.
type SeriesPoint struct {
	Step  int
	Value float64
}

// Series collects a training curve — the TrainingAccuracy ("every k-th
// step") and TestAccuracy ("every k-th epoch") metrics of Level 2.
type Series struct {
	Every  int // record every k-th observation (1 = all)
	points []SeriesPoint
	calls  int
}

// NewSeries returns a series metric recording every k-th observation.
func NewSeries(every int) *Series {
	if every < 1 {
		every = 1
	}
	return &Series{Every: every}
}

// Observe records value at step if it falls on the k-th cadence.
func (s *Series) Observe(step int, value float64) {
	s.calls++
	if (s.calls-1)%s.Every != 0 {
		return
	}
	s.points = append(s.points, SeriesPoint{Step: step, Value: value})
}

// Points returns the recorded curve.
func (s *Series) Points() []SeriesPoint { return s.points }

// Last returns the most recent recorded value (NaN when empty).
func (s *Series) Last() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	return s.points[len(s.points)-1].Value
}

// Best returns the maximum recorded value (NaN when empty).
func (s *Series) Best() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	best := s.points[0].Value
	for _, p := range s.points[1:] {
		if p.Value > best {
			best = p.Value
		}
	}
	return best
}

// DatasetBias collects a histogram of sampled labels and quantifies
// deviation from uniformity (Level 2 "DatasetBias": the paper validates
// dataset samplers by collecting a histogram of sampled elements w.r.t.
// labels, §IV-E).
type DatasetBias struct {
	counts map[int]int
	total  int
}

// NewDatasetBias returns a label-histogram metric.
func NewDatasetBias() *DatasetBias {
	return &DatasetBias{counts: make(map[int]int)}
}

// ObserveLabel counts one sampled label.
func (b *DatasetBias) ObserveLabel(label int) {
	b.counts[label]++
	b.total++
}

// Histogram returns the label counts.
func (b *DatasetBias) Histogram() map[int]int { return b.counts }

// ChiSquare returns the χ² statistic against the uniform distribution over
// the observed label set; larger means more biased sampling.
func (b *DatasetBias) ChiSquare() float64 {
	k := len(b.counts)
	if k == 0 || b.total == 0 {
		return 0
	}
	expected := float64(b.total) / float64(k)
	var chi float64
	for _, c := range b.counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}
