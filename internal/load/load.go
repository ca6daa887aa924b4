// Package load is the open-loop traffic harness for the serving
// subsystem: it fires requests on a deterministic, seeded Poisson
// schedule (steady, ramp and spike profiles) without waiting for
// completions — the arrival process is independent of service capacity,
// the property that makes overload visible instead of self-throttling
// like a closed-loop client would. Results classify every request into
// served / rejected / timed-out / failed, expose latency percentiles
// over arbitrary time windows, and check against an SLO to produce a
// pass/fail verdict with reasons.
//
// The schedule (including its length) is a pure function of (profile,
// seed), so request counts are benchmarkable constants; only latencies
// and outcome proportions vary with machine speed.
package load

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"deep500/internal/metrics"
	"deep500/internal/serve"
)

// ErrRejected marks a request rejected by backpressure (an HTTP 429/503
// seen by a remote client, or serve.ErrQueueFull in process).
var ErrRejected = errors.New("load: rejected (backpressure)")

// Outcome classifies one request's result.
type Outcome int

const (
	// OK: answered within its deadline.
	OK Outcome = iota
	// Rejected: shed by admission control (queue full, priority shed,
	// server closed).
	Rejected
	// TimedOut: the per-request deadline expired first.
	TimedOut
	// Failed: any other error (replica crash, transport failure).
	Failed
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Rejected:
		return "rejected"
	case TimedOut:
		return "timeout"
	default:
		return "failed"
	}
}

// Classify maps a request error onto an Outcome: nil is OK; ErrRejected,
// serve.ErrQueueFull (which covers priority sheds) and serve.ErrClosed
// are Rejected; context expiry is TimedOut; everything else is Failed.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, ErrRejected), errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrClosed):
		return Rejected
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return TimedOut
	default:
		return Failed
	}
}

// SendFunc issues one request. ctx carries the per-request deadline; the
// returned error is classified with Classify.
type SendFunc func(ctx context.Context) error

// Config configures one open-loop run.
type Config struct {
	// Profile is the arrival schedule's shape.
	Profile Profile
	// Seed drives the schedule; the same (Profile, Seed) always sends the
	// same number of requests at the same offsets.
	Seed uint64
	// Deadline is the per-request deadline (0: none).
	Deadline time.Duration
	// Send issues one request; required.
	Send SendFunc
}

// Point is one request's fate: its scheduled arrival offset, measured
// latency, and outcome.
type Point struct {
	At      time.Duration `json:"at_ns"`
	Latency time.Duration `json:"latency_ns"`
	Outcome Outcome       `json:"outcome"`
}

// Result aggregates one run.
type Result struct {
	// Sent is the schedule length; the outcome counters partition it
	// (Sent = OK + Rejected + TimedOut + Failed).
	Sent     int `json:"sent"`
	OK       int `json:"ok"`
	Rejected int `json:"rejected"`
	TimedOut int `json:"timed_out"`
	Failed   int `json:"failed"`
	// Elapsed is the wall-clock span from first arrival to last answer.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Points carries every request, ordered by arrival offset.
	Points []Point `json:"-"`
}

// Run executes the open-loop schedule: every arrival fires at its offset
// regardless of how many earlier requests are still in flight. ctx
// cancellation aborts the remaining schedule and returns ctx.Err();
// otherwise Run waits for every response before returning.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Send == nil {
		return nil, errors.New("load: Config.Send is required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	schedule, err := cfg.Profile.Schedule(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Sent:   len(schedule),
		Points: make([]Point, len(schedule)),
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range schedule {
		if wait := time.Until(start.Add(at)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		} else if err := ctx.Err(); err != nil {
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			rctx := ctx
			cancel := func() {}
			if cfg.Deadline > 0 {
				rctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
			}
			t0 := time.Now()
			err := cfg.Send(rctx)
			cancel()
			res.Points[i] = Point{At: at, Latency: time.Since(t0), Outcome: Classify(err)}
		}(i, at)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for _, pt := range res.Points {
		switch pt.Outcome {
		case OK:
			res.OK++
		case Rejected:
			res.Rejected++
		case TimedOut:
			res.TimedOut++
		default:
			res.Failed++
		}
	}
	return res, nil
}

// Percentile is the nearest-rank q-quantile (0 < q ≤ 1) of the served
// requests' latencies, across the whole run.
func (r *Result) Percentile(q float64) time.Duration {
	return r.WindowPercentile(0, r.Elapsed+1, q)
}

// WindowPercentile restricts Percentile to requests whose arrival offset
// lies in [from, to). Zero served requests in the window yield 0.
func (r *Result) WindowPercentile(from, to time.Duration, q float64) time.Duration {
	var lats []time.Duration
	for _, pt := range r.Points {
		if pt.Outcome == OK && pt.At >= from && pt.At < to {
			lats = append(lats, pt.Latency)
		}
	}
	slices.Sort(lats)
	return metrics.Percentile(lats, q)
}

// Goodput is the served-request rate over the run (answers/second).
func (r *Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// frac is the fraction of sent requests with the given count.
func (r *Result) frac(n int) float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(n) / float64(r.Sent)
}

// SLO is a service-level objective over one run. P99 and MinServedFrac
// are skipped when zero; the Max fractions treat zero as a hard bound (a
// zero budget: any timeout or reject fails).
type SLO struct {
	// P99 bounds the 99th-percentile latency of served requests.
	P99 time.Duration `json:"p99_ns"`
	// MaxTimeoutFrac / MaxRejectFrac bound the timed-out and rejected
	// fractions of sent requests.
	MaxTimeoutFrac float64 `json:"max_timeout_frac"`
	MaxRejectFrac  float64 `json:"max_reject_frac"`
	// MinServedFrac bounds the served fraction of sent requests from
	// below.
	MinServedFrac float64 `json:"min_served_frac"`
}

// Verdict is an SLO check outcome: a pass/fail plus the failed
// dimensions, each with measured-vs-bound detail.
type Verdict struct {
	Pass    bool     `json:"pass"`
	Reasons []string `json:"reasons,omitempty"`
}

// String renders the verdict for logs: "pass" or "fail: reason; reason".
func (v Verdict) String() string {
	if v.Pass {
		return "pass"
	}
	return "fail: " + strings.Join(v.Reasons, "; ")
}

// Check evaluates the result against the SLO. Failed requests always
// fail the verdict (there is no acceptable crash budget).
func (r *Result) Check(slo SLO) Verdict {
	var reasons []string
	if r.Failed > 0 {
		reasons = append(reasons, fmt.Sprintf("%d requests failed outright", r.Failed))
	}
	if slo.P99 > 0 {
		if p99 := r.Percentile(0.99); p99 > slo.P99 {
			reasons = append(reasons, fmt.Sprintf("p99 %v exceeds %v", p99, slo.P99))
		}
	}
	if got := r.frac(r.TimedOut); got > slo.MaxTimeoutFrac {
		reasons = append(reasons, fmt.Sprintf("timeout fraction %.4f exceeds %.4f", got, slo.MaxTimeoutFrac))
	}
	if got := r.frac(r.Rejected); got > slo.MaxRejectFrac {
		reasons = append(reasons, fmt.Sprintf("reject fraction %.4f exceeds %.4f", got, slo.MaxRejectFrac))
	}
	if slo.MinServedFrac > 0 {
		if got := r.frac(r.OK); got < slo.MinServedFrac {
			reasons = append(reasons, fmt.Sprintf("served fraction %.4f below %.4f", got, slo.MinServedFrac))
		}
	}
	return Verdict{Pass: len(reasons) == 0, Reasons: reasons}
}
