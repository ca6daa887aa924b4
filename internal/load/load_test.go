package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/serve"
	"deep500/internal/tensor"
)

// TestScheduleDeterministic pins the property every load comparison rests
// on: the schedule — including its length — is a pure function of
// (profile, seed).
func TestScheduleDeterministic(t *testing.T) {
	profiles := map[string]Profile{
		"steady": {Kind: Steady, Rate: 500, Duration: time.Second},
		"ramp":   {Kind: Ramp, Rate: 100, Peak: 900, Duration: time.Second},
		"spike": {Kind: Spike, Rate: 100, Peak: 2000, Duration: time.Second,
			SpikeStart: 300 * time.Millisecond, SpikeLen: 200 * time.Millisecond},
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			a, err := p.Schedule(42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Schedule(42)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
				}
			}
			c, err := p.Schedule(43)
			if err != nil {
				t.Fatal(err)
			}
			if len(c) == len(a) {
				same := true
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatal("different seeds produced identical schedules")
				}
			}
			for i, at := range a {
				if at < 0 || at >= p.Duration {
					t.Fatalf("arrival %d at %v outside [0, %v)", i, at, p.Duration)
				}
				if i > 0 && at < a[i-1] {
					t.Fatalf("schedule not sorted at %d", i)
				}
			}
			// The count should be near the profile's integrated rate
			// (a Poisson mean; allow ±5σ).
			var mean float64
			switch p.Kind {
			case Steady:
				mean = p.Rate * p.Duration.Seconds()
			case Ramp:
				mean = (p.Rate + p.Peak) / 2 * p.Duration.Seconds()
			case Spike:
				mean = p.Rate*(p.Duration-p.SpikeLen).Seconds() + p.Peak*p.SpikeLen.Seconds()
			}
			sigma := 5 * mathSqrt(mean)
			if got := float64(len(a)); got < mean-sigma || got > mean+sigma {
				t.Fatalf("schedule length %d far from Poisson mean %.0f", len(a), mean)
			}
		})
	}
}

func mathSqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestScheduleShapes checks the time-varying profiles actually vary:
// a ramp's second half is denser than its first, and a spike's window is
// denser than its surroundings.
func TestScheduleShapes(t *testing.T) {
	ramp := Profile{Kind: Ramp, Rate: 100, Peak: 1900, Duration: time.Second}
	sched, err := ramp.Schedule(7)
	if err != nil {
		t.Fatal(err)
	}
	half := 0
	for _, at := range sched {
		if at < ramp.Duration/2 {
			half++
		}
	}
	if rest := len(sched) - half; rest <= half {
		t.Fatalf("ramp density did not grow: %d arrivals in first half, %d in second", half, rest)
	}

	spike := Profile{Kind: Spike, Rate: 50, Peak: 3000, Duration: time.Second,
		SpikeStart: 400 * time.Millisecond, SpikeLen: 200 * time.Millisecond}
	sched, err = spike.Schedule(7)
	if err != nil {
		t.Fatal(err)
	}
	in := 0
	for _, at := range sched {
		if at >= spike.SpikeStart && at < spike.SpikeStart+spike.SpikeLen {
			in++
		}
	}
	out := len(sched) - in
	if in <= out {
		t.Fatalf("spike window not denser: %d in-window vs %d outside", in, out)
	}
}

// TestProfileValidate covers the rejection surface.
func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{Kind: Steady, Rate: 0, Duration: time.Second},
		{Kind: Steady, Rate: 10, Duration: 0},
		{Kind: Ramp, Rate: 10, Duration: time.Second},
		{Kind: Spike, Rate: 10, Peak: 100, Duration: time.Second},
		{Kind: Spike, Rate: 10, Peak: 100, Duration: time.Second, SpikeStart: 900 * time.Millisecond, SpikeLen: 200 * time.Millisecond},
		{Kind: "sawtooth", Rate: 10, Duration: time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d (%+v) validated", i, p)
		}
		if _, err := p.Schedule(1); err == nil {
			t.Errorf("profile %d (%+v) scheduled", i, p)
		}
	}
}

// TestClassify pins the outcome taxonomy.
func TestClassify(t *testing.T) {
	cases := map[Outcome][]error{
		OK:       {nil},
		Rejected: {ErrRejected, serve.ErrQueueFull, serve.ErrShed, serve.ErrClosed, fmt.Errorf("wrapped: %w", ErrRejected)},
		TimedOut: {context.DeadlineExceeded, context.Canceled},
		Failed:   {errors.New("boom"), serve.ErrReplicaCrash},
	}
	for want, errs := range cases {
		for _, err := range errs {
			if got := Classify(err); got != want {
				t.Errorf("Classify(%v) = %v, want %v", err, got, want)
			}
		}
	}
}

// TestRunOpenLoopIdentity runs the generator against a synthetic sender
// that exercises every outcome and checks the partition identity plus
// the SLO verdict plumbing.
func TestRunOpenLoopIdentity(t *testing.T) {
	var n atomic.Int64
	send := func(ctx context.Context) error {
		switch i := n.Add(1); {
		case i%7 == 0:
			return ErrRejected
		case i%11 == 0:
			return errors.New("synthetic fault")
		case i%13 == 0:
			// Sleep past the deadline, honoring ctx like a real client.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Second):
				return nil
			}
		default:
			return nil
		}
	}
	res, err := Run(context.Background(), Config{
		Profile:  Profile{Kind: Steady, Rate: 2000, Duration: 250 * time.Millisecond},
		Seed:     11,
		Deadline: 20 * time.Millisecond,
		Send:     send,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("empty schedule")
	}
	if res.OK+res.Rejected+res.TimedOut+res.Failed != res.Sent {
		t.Fatalf("outcome partition broken: %+v", res)
	}
	if res.Rejected == 0 || res.TimedOut == 0 || res.Failed == 0 {
		t.Fatalf("synthetic sender did not exercise every outcome: %+v", res)
	}
	if got := len(res.Points); got != res.Sent {
		t.Fatalf("%d points for %d sent", got, res.Sent)
	}
	if res.Percentile(0.5) <= 0 {
		t.Fatalf("p50 %v not positive", res.Percentile(0.5))
	}
	if res.Goodput() <= 0 {
		t.Fatal("zero goodput with served requests")
	}

	// A zero-budget SLO must fail with reasons on every violated
	// dimension; a permissive one must pass everything but the faults.
	v := res.Check(SLO{P99: time.Nanosecond})
	if v.Pass || len(v.Reasons) < 3 {
		t.Fatalf("strict SLO verdict too lenient: %+v", v)
	}
	v = res.Check(SLO{MaxTimeoutFrac: 1, MaxRejectFrac: 1})
	if v.Pass || len(v.Reasons) != 1 {
		t.Fatalf("faults must fail any SLO: %+v", v)
	}
}

// TestRunHonorsContext aborts a long schedule early.
func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{
		Profile: Profile{Kind: Steady, Rate: 100, Duration: 10 * time.Second},
		Send:    func(context.Context) error { return nil },
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want DeadlineExceeded", err)
	}
}

// slowFactory builds executors whose per-op delay gives the pool a
// deterministic, machine-independent service capacity, so the spike test
// reliably overloads one replica whatever the host speed.
func slowFactory(m *graph.Model, opDelay time.Duration) func() (executor.GraphExecutor, error) {
	return func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) { time.Sleep(opDelay) }}
		return e, nil
	}
}

// TestLoadSpikeAutoscalesAndRecovers is the acceptance demonstration:
// open-loop spike traffic overloads a single replica, the autoscaler
// grows the pool (the replica gauge rises), and post-spike p99 recovers
// below the congested spike-window p99. Runs under -race in CI.
func TestLoadSpikeAutoscalesAndRecovers(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	var scaleMu sync.Mutex
	maxPool := 1
	srv, err := serve.New(serve.Options{
		MaxBatch:         1, // per-request passes: capacity ≈ 1/passTime per replica
		Replicas:         1,
		MaxReplicas:      4,
		QueueDepth:       16,
		ScaleInterval:    2 * time.Millisecond,
		ScaleUpOccupancy: 0.5,
		ScaleDownIdle:    200 * time.Millisecond,
		NewExecutor:      slowFactory(m, 300*time.Microsecond),
		OnScale: func(replicas int, up bool) {
			scaleMu.Lock()
			if replicas > maxPool {
				maxPool = replicas
			}
			scaleMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	input := inputFor(m, 1, 1)
	profile := Profile{
		Kind:       Spike,
		Rate:       100,
		Peak:       3000,
		Duration:   900 * time.Millisecond,
		SpikeStart: 200 * time.Millisecond,
		SpikeLen:   300 * time.Millisecond,
	}
	res, err := Run(context.Background(), Config{
		Profile:  profile,
		Seed:     500,
		Deadline: 250 * time.Millisecond,
		Send: func(ctx context.Context) error {
			_, err := srv.Infer(ctx, map[string]*tensor.Tensor{"x": input})
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK+res.Rejected+res.TimedOut+res.Failed != res.Sent {
		t.Fatalf("outcome partition broken: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed outright", res.Failed)
	}

	// The replica gauge must have risen.
	st := srv.Stats()
	if st.ScaleUps == 0 {
		t.Fatalf("spike did not trigger a scale-up: %+v", st)
	}
	scaleMu.Lock()
	peak := maxPool
	scaleMu.Unlock()
	if peak < 2 {
		t.Fatalf("replica pool never grew past %d", peak)
	}

	// p99 must recover after the spike: the post-spike window (with the
	// scaled-up pool draining the backlog) must be quieter than the
	// congested spike window.
	spikeEnd := profile.SpikeStart + profile.SpikeLen
	spikeP99 := res.WindowPercentile(profile.SpikeStart, spikeEnd, 0.99)
	recoveryP99 := res.WindowPercentile(spikeEnd+100*time.Millisecond, profile.Duration, 0.99)
	if recoveryP99 <= 0 {
		t.Fatalf("no served requests in the recovery window: %+v", res)
	}
	if spikeP99 < 5*time.Millisecond {
		t.Fatalf("spike window never congested (p99 %v) — the overload premise failed", spikeP99)
	}
	if recoveryP99 >= spikeP99 {
		t.Fatalf("p99 did not recover: spike %v, post-spike %v", spikeP99, recoveryP99)
	}
	if recoveryP99 > 100*time.Millisecond {
		t.Fatalf("post-spike p99 %v still congested", recoveryP99)
	}
}

func inputFor(m *graph.Model, rows int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	shape := append([]int{rows}, m.Inputs[0].Shape[1:]...)
	return tensor.RandNormal(rng, 0, 1, shape...)
}
