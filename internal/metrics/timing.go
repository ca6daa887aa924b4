package metrics

import (
	"time"
)

// WallclockTime measures elapsed time per run in seconds — the Level 0/1
// performance metric.
type WallclockTime struct {
	*Sampler
	start time.Time
}

// NewWallclockTime returns a wallclock-time metric.
func NewWallclockTime(name string) *WallclockTime {
	return &WallclockTime{Sampler: NewSampler(name, "s")}
}

// Begin marks the start of a measured region.
func (w *WallclockTime) Begin() { w.start = time.Now() }

// End closes the region and records its duration.
func (w *WallclockTime) End() { w.Record(time.Since(w.start).Seconds()) }

// DatasetLatency measures minibatch-loading latency in seconds (Level 2/3
// I/O metric, paper Fig. 8).
type DatasetLatency struct{ *WallclockTime }

// NewDatasetLatency returns a dataset-latency metric.
func NewDatasetLatency(name string) *DatasetLatency {
	return &DatasetLatency{NewWallclockTime(name)}
}

// TimeToAccuracy combines performance and accuracy (paper §III-C, metric ¸):
// it watches (elapsed time, accuracy) observations and reports the first
// time the target accuracy was reached.
type TimeToAccuracy struct {
	Target  float64
	reached bool
	when    time.Duration
	start   time.Time
}

// NewTimeToAccuracy returns a time-to-accuracy metric for the given target.
func NewTimeToAccuracy(target float64) *TimeToAccuracy {
	return &TimeToAccuracy{Target: target, start: time.Now()}
}

// Start resets the clock.
func (t *TimeToAccuracy) Start() {
	t.start = time.Now()
	t.reached = false
}

// Observe records the current accuracy.
func (t *TimeToAccuracy) Observe(acc float64) {
	if !t.reached && acc >= t.Target {
		t.reached = true
		t.when = time.Since(t.start)
	}
}

// Reached reports whether the target was hit and when.
func (t *TimeToAccuracy) Reached() (bool, time.Duration) { return t.reached, t.when }
