package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	five := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		samples []float64
		q, want float64
	}{
		{five, 0.5, 3},  // ceil(2.5) = 3rd of 1 2 3 4 5
		{five, 0.95, 5}, // ceil(4.75) = 5th
		{five, 0.2, 1},  // ceil(1.0) = 1st
		{five, 0.21, 2}, // ceil(1.05) = 2nd
		{five, 0, 1},    // rank clamps to the 1st
		{five, 1, 5},    // the largest
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2}, // ceil(2.0) = 2nd: the lower middle, no interpolation
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.samples, c.q, got, c.want)
		}
	}
	if five[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// A segment keeps every window, raw and on the reference clock: a window
// that ran while the host was twice as slow as the reference counts half its
// time.
func TestSegmentReferenceClock(t *testing.T) {
	var s segment
	s.add([]float64{10, 20}, 3, 1, 2*time.Second, time.Second, 100*time.Millisecond, 1)
	s.add([]float64{40}, 1, 0, 2*time.Second, 3*time.Second, 0, 2)
	if s.attempted != 4 || s.failed != 1 || s.ops() != 3 {
		t.Errorf("attempted %d, failed %d, ops %g; want 4, 1, 3", s.attempted, s.failed, s.ops())
	}
	if !reflect.DeepEqual(s.opMS, []float64{10, 20, 40}) || !reflect.DeepEqual(s.refOpMS, []float64{10, 20, 20}) {
		t.Errorf("latencies raw %v, on the reference clock %v", s.opMS, s.refOpMS)
	}
	if s.busy != 4*time.Second || s.refBusy != 3*time.Second {
		t.Errorf("busy %v raw, %v on the reference clock; want 4s, 3s", s.busy, s.refBusy)
	}
	if s.cpu != 4*time.Second || s.refCPU != 2500*time.Millisecond {
		t.Errorf("cpu %v raw, %v on the reference clock; want 4s, 2.5s", s.cpu, s.refCPU)
	}
	if s.opsPerS() != 1 {
		t.Errorf("throughput on the reference clock %g/s, want 1/s", s.opsPerS())
	}
	if got, want := s.slowdown(), 4.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("the segment's own slowdown %g, want %g", got, want)
	}
	if got, want := s.lostShare(), 0.1/(4*float64(runtime.NumCPU())); math.Abs(got-want) > 1e-12 {
		t.Errorf("lost share %g, want %g", got, want)
	}
}
