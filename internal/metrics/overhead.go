package metrics

import (
	"sync/atomic"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
)

// FrameworkOverhead measures, per forward pass, the difference between the
// whole-pass wallclock time and the sum of individual operator runtimes —
// the Level 1 metric the paper uses to expose framework and hardware
// management cost (GPU kernel invocation latency etc., §IV-D).
type FrameworkOverhead struct {
	*Sampler        // overhead fraction per pass (0.1 = 10%)
	opTime          time.Duration
	AbsoluteSampler *Sampler // overhead seconds per pass
}

// NewFrameworkOverhead returns the metric.
func NewFrameworkOverhead() *FrameworkOverhead {
	return &FrameworkOverhead{
		Sampler:         NewSampler("FrameworkOverhead", "fraction"),
		AbsoluteSampler: NewSampler("FrameworkOverheadAbs", "s"),
	}
}

// Events returns executor hooks that feed this metric: the paper's pattern
// of one metric class that also extends Event.
//
// Operators run one after another inside the pass, so the overhead — pass
// time not spent inside an operator — is never negative.
func (f *FrameworkOverhead) Events() *executor.Events {
	return &executor.Events{
		BeforeInference: func() { f.opTime = 0 },
		AfterOp:         func(n *graph.Node, d time.Duration) { f.opTime += d },
		AfterInference: func(total time.Duration) {
			over := total - f.opTime
			f.AbsoluteSampler.Record(over.Seconds())
			if total > 0 {
				f.Record(float64(over) / float64(total))
			}
		},
	}
}

// CommunicationVolume accumulates bytes moved over the (simulated) network,
// the Level 3 metric of §IV-F. The zero value is ready to use, and it is
// safe for concurrent use by many ranks.
type CommunicationVolume struct {
	sent     atomic.Int64
	received atomic.Int64
	messages atomic.Int64
}

// AddSent, AddReceived record traffic; AddMessage counts one message.
func (c *CommunicationVolume) AddSent(b int64)     { c.sent.Add(b); c.messages.Add(1) }
func (c *CommunicationVolume) AddReceived(b int64) { c.received.Add(b) }

// Sent and Received return accumulated byte counts; Messages the message
// count.
func (c *CommunicationVolume) Sent() int64     { return c.sent.Load() }
func (c *CommunicationVolume) Received() int64 { return c.received.Load() }
func (c *CommunicationVolume) Messages() int64 { return c.messages.Load() }
