package d500

import (
	"fmt"
	"io"
	"time"
)

// Event is a structured observation from a Session or Server: a training
// step or epoch finishing, an evaluation completing, a benchmark sample
// being recorded, a serving micro-batch executing, the autoscaler resizing
// a replica pool, a replica crashing, a checkpoint landing on disk, or
// the session tracer retaining a trace. The concrete types are StepEnd,
// EpochEnd, BenchSample, ServeSample, ServeScale, ReplicaDown,
// CheckpointSaved and TraceSpan; consumers type-switch on the value they
// receive.
type Event interface{ event() }

// StepEnd is emitted after every optimization step.
type StepEnd struct {
	// Step is the 1-based global step counter of the run.
	Step int
	// Loss is the step's loss output.
	Loss float64
	// Accuracy is the step's minibatch accuracy output.
	Accuracy float64
}

// EpochEnd is emitted after every training epoch (including its periodic
// evaluation, when a test set is configured).
type EpochEnd struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// TestAccuracy is the post-epoch test-set accuracy (0 without a test
	// set).
	TestAccuracy float64
	// LastLoss is the most recent training loss observation.
	LastLoss float64
}

// BenchSample is emitted for every record a benchmark experiment appends
// to the machine-readable report, while the suite is still running.
type BenchSample struct {
	// Experiment is the suite experiment id ("fig6conv", "serve", ...).
	Experiment string
	// Metric is the record name within the experiment.
	Metric string
	// Unit is the record's unit ("s", "B", "frac", ...).
	Unit string
	// Value is the record's median.
	Value float64
	// Samples is how many raw observations back the value.
	Samples int
}

// ServeSample is emitted by a Server for every executed micro-batch: how
// many requests and rows were coalesced, how long the batch's oldest
// request waited, and how long the batched pass took. Emissions are
// serialized across replicas, so a hook consuming them need not be
// thread-safe.
type ServeSample struct {
	// Replica identifies the session replica that ran the batch.
	Replica int
	// Requests and Rows describe the coalesced batch.
	Requests, Rows int
	// QueueWait is the oldest request's admission-to-dispatch wait.
	QueueWait time.Duration
	// Exec is the batched forward-pass duration.
	Exec time.Duration
}

// ServeScale is emitted by a Server whose autoscaler (WithMaxReplicas)
// changed the replica pool: a replica was added under queue pressure, or
// an idle scaled-up replica was retired by draining. Emitted from the
// scaler goroutine; unlike ServeSample it is NOT serialized with the
// batch events, so a hook consuming it together with them must be
// thread-safe (Metrics is).
type ServeScale struct {
	// Replicas is the pool size after the change.
	Replicas int
	// Up reports the direction: true for a scale-up.
	Up bool
}

// ReplicaDown is emitted by a Server when one of its replicas crashes: a
// panic in the replica's pass was recovered, its in-flight requests failed
// with ErrReplicaCrash, and the pool continues at degraded capacity.
// Emissions are serialized with ServeSample, so a hook consuming both need
// not be thread-safe.
type ReplicaDown struct {
	// Replica identifies the crashed replica.
	Replica int
	// Err is the recovered panic, wrapped in ErrReplicaCrash.
	Err error
	// Respawned reports whether the replica was rebuilt from the shared
	// weights and returned to the pool (see WithRespawn).
	Respawned bool
}

// CheckpointSaved is emitted by Session.Train after a training checkpoint
// has been durably written (its atomic rename completed). It is delivered
// on the training goroutine, like every other training event, and a step's
// checkpoint arrives before that step's StepEnd.
type CheckpointSaved struct {
	// Step and Epoch locate the snapshot in the run: optimization steps and
	// full epochs completed at capture time.
	Step, Epoch int
	// Path is the checkpoint file.
	Path string
}

// TraceSpan is emitted when a session-owned tracer (WithTrace) retains a
// trace in its flight recorder — head-sampled, tail-sampled for latency,
// or errored. TraceID is the exemplar to pass to GET /debug/traces.
// Like ServeScale, it is delivered on whichever goroutine ended the
// trace's root span, NOT serialized with the training events: a hook
// consuming it together with them must be thread-safe (Metrics is;
// ConsoleHook emits a single Fprintf per event).
type TraceSpan struct {
	// Name is the root span's name ("train.run", "serve.request", ...).
	Name string
	// TraceID is the 16-hex trace identifier.
	TraceID string
	// Duration is the root span's duration.
	Duration time.Duration
	// Spans is how many spans the retained trace held at retention.
	Spans int
	// Error reports whether the root span recorded an error.
	Error bool
}

func (StepEnd) event()         {}
func (EpochEnd) event()        {}
func (BenchSample) event()     {}
func (ServeSample) event()     {}
func (ServeScale) event()      {}
func (ReplicaDown) event()     {}
func (CheckpointSaved) event() {}
func (TraceSpan) event()       {}

// Hook consumes the session event stream. Hooks run synchronously on the
// training/benchmark goroutine: keep them fast, or hand off to a channel.
type Hook func(Event)

// MultiHook fans one event stream out to several consumers in order; nil
// entries are skipped.
func MultiHook(hooks ...Hook) Hook {
	return func(e Event) {
		for _, h := range hooks {
			if h != nil {
				h(e)
			}
		}
	}
}

// ConsoleHook renders the event stream as human-readable progress lines —
// the table renderers the binaries previously hand-rolled, reimplemented
// as one stream consumer. StepEnd events are sampled (every 50th) to keep
// terminals readable; every other event renders unconditionally.
func ConsoleHook(w io.Writer) Hook {
	if w == nil {
		return func(Event) {}
	}
	return func(e Event) {
		switch ev := e.(type) {
		case StepEnd:
			if ev.Step%50 == 0 {
				fmt.Fprintf(w, "step %5d  loss %.4f  batch acc %.3f\n", ev.Step, ev.Loss, ev.Accuracy)
			}
		case EpochEnd:
			fmt.Fprintf(w, "epoch %2d  test accuracy %.4f  last loss %.4f\n", ev.Epoch, ev.TestAccuracy, ev.LastLoss)
		case BenchSample:
			fmt.Fprintf(w, "bench %-12s %-32s %12.6g %s (%d samples)\n", ev.Experiment, ev.Metric, ev.Value, ev.Unit, ev.Samples)
		case ServeSample:
			fmt.Fprintf(w, "serve replica %d  batch %d req / %d rows  wait %s  exec %s\n",
				ev.Replica, ev.Requests, ev.Rows, fdur(ev.QueueWait), fdur(ev.Exec))
		case ServeScale:
			dir := "down to"
			if ev.Up {
				dir = "up to"
			}
			fmt.Fprintf(w, "serve autoscale %s %d replicas\n", dir, ev.Replicas)
		case ReplicaDown:
			state := "dead"
			if ev.Respawned {
				state = "respawned"
			}
			fmt.Fprintf(w, "serve replica %d DOWN (%s): %v\n", ev.Replica, state, ev.Err)
		case CheckpointSaved:
			fmt.Fprintf(w, "checkpoint saved at step %d (epoch %d): %s\n", ev.Step, ev.Epoch, ev.Path)
		case TraceSpan:
			status := ""
			if ev.Error {
				status = "  ERROR"
			}
			fmt.Fprintf(w, "trace %s  %s  %d spans  %s%s\n",
				ev.TraceID, ev.Name, ev.Spans, fdur(ev.Duration), status)
		}
	}
}

// timing helper shared by TrainResult rendering.
func fdur(d time.Duration) string { return d.Round(time.Millisecond).String() }
