package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"deep500/internal/tensor"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Median != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeP95AndMAD(t *testing.T) {
	s := Summarize([]float64{1, 1, 1, 1, 1})
	if s.P95 != 1 || s.MAD != 0 {
		t.Fatalf("constant samples: %+v", s)
	}
	s = Summarize([]float64{1, 2, 3, 4, 100})
	if s.P95 <= s.P75 || s.P95 > s.Max {
		t.Fatalf("p95 ordering: %+v", s)
	}
	// median 3, deviations {2,1,0,1,97} → MAD 1
	if s.MAD != 1 {
		t.Fatalf("MAD = %v", s.MAD)
	}
}

func TestMADRobustToOutliers(t *testing.T) {
	base := MAD([]float64{1, 2, 3, 4, 5}, 3)
	spiked := MAD([]float64{1, 2, 3, 4, 5000}, 3)
	if base != 1 || spiked != 1 {
		t.Fatalf("MAD base %v spiked %v", base, spiked)
	}
	if MAD(nil, 0) != 0 {
		t.Fatal("empty MAD")
	}
}

func TestSamplerDistribution(t *testing.T) {
	s := NewSampler("d", "s")
	for _, v := range []float64{3, 1, 2} {
		s.Record(v)
	}
	d := s.Distribution()
	if d.Median != 2 || d.N != 3 {
		t.Fatalf("%+v", d.Summary)
	}
	if len(d.Samples) != 3 || d.Samples[0] != 3 {
		t.Fatalf("samples not retained in order: %v", d.Samples)
	}
	// the distribution owns a copy: mutating it must not corrupt the sampler
	d.Samples[0] = -1
	if s.Samples()[0] != 3 {
		t.Fatal("Distribution aliases sampler storage")
	}
}

// TestPercentile pins the nearest-rank convention sorted[ceil(q·n)−1]:
// every answer is a sample, never an interpolation between two.
func TestPercentile(t *testing.T) {
	five := []float64{1, 2, 3, 4, 5}
	four := []float64{10, 20, 30, 40}
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"n=1 any q", []float64{7}, 0.5, 7},
		{"n=1 q=0.95", []float64{7}, 0.95, 7},
		{"odd n median", five, 0.5, 3},
		{"even n median is the lower middle", four, 0.5, 20},
		{"q=0.25", five, 0.25, 2},
		{"q=0.95 of 5", five, 0.95, 5},
		{"q=0.95 of 20", twenty, 0.95, 19},
		{"q=0.95 of 4", four, 0.95, 40},
		{"q→0 reads the minimum", five, 1e-9, 1},
		{"q=0 reads the minimum", five, 0, 1},
		{"q→1 reads the maximum", five, 1 - 1e-9, 5},
		{"q=1 reads the maximum", five, 1, 5},
		{"empty reads zero", nil, 0.5, 0},
	} {
		if got := Percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: Percentile(%v, %g) = %v, want %v", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestMedianCIContainsMedian(t *testing.T) {
	// For n=30 the binomial CI of the median must bracket the median.
	rng := tensor.NewRNG(5)
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = rng.Norm()
	}
	s := Summarize(vals)
	if s.CI95Low > s.Median || s.CI95High < s.Median {
		t.Fatalf("CI [%v, %v] does not contain median %v", s.CI95Low, s.CI95High, s.Median)
	}
	if s.CI95Low == s.CI95High {
		t.Fatal("degenerate CI for n=30")
	}
}

func TestPropCIOrdering(t *testing.T) {
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		n := rng.Intn(100) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		s := Summarize(vals)
		return s.Min <= s.CI95Low && s.CI95Low <= s.CI95High && s.CI95High <= s.Max &&
			s.P25 <= s.Median && s.Median <= s.P75
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerLifecycle(t *testing.T) {
	s := NewSampler("x", "unit").WithReruns(5)
	if s.RequiredReruns() != 5 || s.Name() != "x" {
		t.Fatal("config lost")
	}
	for i := 0; i < 5; i++ {
		s.Record(float64(i))
	}
	if s.Count() != 5 {
		t.Fatal("count")
	}
	sum := s.Summarize()
	if sum.Median != 2 || sum.Unit != "unit" {
		t.Fatalf("%+v", sum)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestWallclockTime(t *testing.T) {
	w := NewWallclockTime("sleep")
	w.Begin()
	time.Sleep(2 * time.Millisecond)
	w.End()
	if w.Count() != 1 || w.Samples()[0] < 0.001 {
		t.Fatalf("samples %v", w.Samples())
	}
}

func TestSeriesCadence(t *testing.T) {
	s := NewSeries("acc", "f", 3)
	for i := 0; i < 9; i++ {
		s.Observe(i, 0, float64(i))
	}
	pts := s.Points()
	if len(pts) != 3 || pts[0].Step != 0 || pts[1].Step != 3 || pts[2].Step != 6 {
		t.Fatalf("points %v", pts)
	}
	if s.Last() != 6 || s.Best() != 6 {
		t.Fatalf("last/best %v %v", s.Last(), s.Best())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewTrainingAccuracy(1)
	if !math.IsNaN(s.Last()) || !math.IsNaN(s.Best()) {
		t.Fatal("empty series should be NaN")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	m := NewTimeToAccuracy("tta", 0.9)
	m.Start()
	m.Observe(0.5)
	if ok, _ := m.Reached(); ok {
		t.Fatal("reached too early")
	}
	time.Sleep(time.Millisecond)
	m.Observe(0.95)
	ok, when := m.Reached()
	if !ok || when <= 0 {
		t.Fatalf("reached=%v when=%v", ok, when)
	}
	// later lower observations must not reset
	m.Observe(0.1)
	if ok2, when2 := m.Reached(); !ok2 || when2 != when {
		t.Fatal("TTA changed after being reached")
	}
	if m.Summarize().N != 1 {
		t.Fatal("summary")
	}
}

func TestDatasetBiasUniform(t *testing.T) {
	b := NewDatasetBias()
	for i := 0; i < 1000; i++ {
		b.ObserveLabel(i % 10)
	}
	if chi := b.ChiSquare(); chi != 0 {
		t.Fatalf("uniform chi² = %v", chi)
	}
	skewed := NewDatasetBias()
	for i := 0; i < 1000; i++ {
		skewed.ObserveLabel(0)
	}
	skewed.ObserveLabel(1)
	if skewed.ChiSquare() < 100 {
		t.Fatalf("skewed chi² = %v", skewed.ChiSquare())
	}
}

func TestCommunicationVolume(t *testing.T) {
	c := NewCommunicationVolume()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				c.AddSent(10)
				c.AddReceived(10)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if c.Sent() != 8000 || c.Received() != 8000 || c.Messages() != 800 {
		t.Fatalf("sent=%d recv=%d msgs=%d", c.Sent(), c.Received(), c.Messages())
	}
	c.Reset()
	if c.Sent() != 0 {
		t.Fatal("reset failed")
	}
}
