package d500

import (
	"context"
	"errors"
	"fmt"

	"deep500/internal/bench"
	"deep500/internal/executor"
	"deep500/internal/frameworks"
	"deep500/internal/graph"
	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// Session is a fully resolved Deep500-Go configuration: framework profile,
// seed and event hook. Open binds it to a model;
// Infer, Train and Bench then drive the stack with context-aware
// execution throughout.
//
// # Concurrency contract
//
// A Session is single-goroutine: no two Session methods may run
// concurrently, because a pass mutates per-pass executor state (activation
// maps, FLOP counters, the memory plan's slab) without cross-call locking. What
// IS safe — and what the serving layer is built on — is running many
// Sessions concurrently from different goroutines:
//
//   - Sessions share the process-wide kernel worker pool. The pool is a
//     counting semaphore of worker tokens; a session that finds the pool
//     drained simply runs its kernels inline, so concurrent sessions degrade
//     to sequential execution instead of oversubscribing the machine.
//   - Sessions may share one model (Open the same *graph.Model in each):
//     parameter tensors are referenced, not copied, so all of them serve
//     the same weights. Concurrent *readers* (Infer) are safe; mutating
//     parameters (Train) while another session reads them is a data race
//     the caller must exclude.
//   - Each Session's executor owns its activation memory: inference passes
//     run out of a memory plan per set of feed shapes, over one slab per
//     executor, and return outputs the caller owns.
//
// For request-level serving concurrency use NewServer, which manages a
// pool of session replicas behind a batching queue — Server, unlike
// Session, is safe for concurrent method calls. Sessions are cheap: the
// heavy state is the model's executor, built by Open.
type Session struct {
	cfg    config
	prof   *frameworks.Profile
	tracer *Tracer

	model *graph.Model
	exec  *executor.Executor

	// benchSuite caches the registered experiment registry (see suite()).
	benchSuite *bench.Suite
}

// New resolves the options into a Session, validating everything eagerly:
// unknown framework names and invalid option values return errors here,
// never panics later.
func New(opts ...Option) (*Session, error) {
	c := config{seed: defaultSeed}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: c}
	if c.framework != "" {
		p, ok := frameworks.ByName(c.framework)
		if !ok { // unreachable: WithFramework validated, but never panic
			return nil, fmt.Errorf("d500: unknown framework backend %q", c.framework)
		}
		s.prof = &p
	}
	switch {
	case c.tracer != nil:
		// Shared tracer (WithTracer): recorder and sampling belong to the
		// owner; no hook binding, so several sessions can share one safely.
		s.tracer = c.tracer
	case c.traceOwn:
		tc := DefaultTraceConfig()
		if c.traceSlow > 0 {
			tc.SlowThreshold = c.traceSlow
		}
		opts := tc.internal()
		if c.hook != nil {
			hook := c.hook
			opts.OnRetain = func(td trace.TraceData) {
				root, ok := td.Root()
				if !ok {
					return
				}
				hook(TraceSpan{
					Name:     root.Name,
					TraceID:  fmt.Sprintf("%016x", td.ID),
					Duration: root.Duration,
					Spans:    len(td.Spans),
					Error:    root.Error,
				})
			}
		}
		s.tracer = &Tracer{t: trace.New(opts)}
	}
	return s, nil
}

// Framework returns the emulated framework profile name ("reference" when
// the session uses the uninstrumented reference executor).
func (s *Session) Framework() string {
	if s.cfg.framework == "" {
		return "reference"
	}
	return s.cfg.framework
}

// Model returns the opened model, nil before Open.
func (s *Session) Model() *graph.Model { return s.model }

// errNotOpen is returned by execution methods before Open succeeds.
var errNotOpen = errors.New("d500: session has no open model (call Open first)")

// newExecutor is the one mapping from the session configuration to an
// executor over m, used by Open and by every Server replica.
func (s *Session) newExecutor(m *graph.Model) (*executor.Executor, error) {
	if s.prof != nil {
		return s.prof.NewExecutor(m)
	}
	return executor.New(m)
}

// Open validates the model, builds its executor under the session's
// configuration and makes it the session's active model. Re-opening with a
// different model replaces the previous executor and its activation memory.
func (s *Session) Open(m *graph.Model) error {
	if m == nil {
		return errors.New("d500: Open requires a non-nil model")
	}
	e, err := s.newExecutor(m)
	if err != nil {
		return fmt.Errorf("d500: opening model %q: %w", m.Name, err)
	}
	s.model, s.exec = m, e
	return nil
}

// Network exposes the live network of the open model — parameters,
// gradients and feeds, each set one slab (ParamSlab, GradSlab) that the
// distributed schemes send, average and update in place.
func (s *Session) Network() (*executor.Network, error) {
	if s.exec == nil {
		return nil, errNotOpen
	}
	return s.exec.Network(), nil
}

// GraphExecutor exposes the open model's executor behind the internal
// GraphExecutor interface — the handle the Level 3 worker schemes
// (dist.NewCentralizedWorker) bind to.
func (s *Session) GraphExecutor() (executor.GraphExecutor, error) {
	if s.exec == nil {
		return nil, errNotOpen
	}
	return s.exec, nil
}

// Infer runs one forward pass over the open model and returns its declared
// outputs, which belong to the caller. Cancelling ctx aborts the pass
// between operator dispatches.
func (s *Session) Infer(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if s.exec == nil {
		return nil, errNotOpen
	}
	return s.exec.Inference(ctx, feeds)
}

// emit delivers an event to the session hook, if any.
func (s *Session) emit(e Event) {
	if s.cfg.hook != nil {
		s.cfg.hook(e)
	}
}
