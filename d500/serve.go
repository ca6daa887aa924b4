package d500

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/serve"
	"deep500/internal/tensor"
)

// Serving errors, re-exported from the internal subsystem so consumers
// can match backpressure conditions with errors.Is without importing
// internal packages.
var (
	// ErrOverloaded is the typed backpressure signal: the server's bounded
	// admission queue is full and the request was rejected immediately.
	ErrOverloaded = serve.ErrQueueFull
	// ErrServerClosed is returned by Server.Infer once Close has begun.
	ErrServerClosed = serve.ErrClosed
	// ErrBadRequest wraps request-validation failures (missing feeds,
	// shape mismatches, disagreeing batch dimensions).
	ErrBadRequest = serve.ErrBadRequest
	// ErrReplicaCrash marks requests that were in flight on a replica whose
	// pass panicked; the pool recovers and keeps serving (see ReplicaDown
	// and WithRespawn).
	ErrReplicaCrash = serve.ErrReplicaCrash
)

// ServerStats is one server's serving counter snapshot: per tenant in
// Registry.Models, summed across tenants in Registry.Stats, and rendered
// by the HTTP /stats route.
type ServerStats = serve.Stats

// serverConfig is the resolved server configuration.
type serverConfig struct {
	sess        []Option
	maxBatch    int
	linger      time.Duration
	replicas    int
	maxReplicas int
	queue       int
	respawn     bool
	scaleEvery  time.Duration
	scaleUpOcc  float64
	scaleIdle   time.Duration
}

// ServerOption configures NewServer. Options are applied in order; the
// first error aborts construction.
type ServerOption func(*serverConfig) error

// WithMaxBatch sets the row count at which a forming micro-batch flushes
// immediately (default 8); 1 disables micro-batching.
func WithMaxBatch(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 1 {
			return fmt.Errorf("d500: WithMaxBatch requires at least 1 row, got %d", n)
		}
		c.maxBatch = n
		return nil
	}
}

// WithMaxLinger bounds how long a non-full batch waits for more requests
// after its first request is picked up (default 0: flush with whatever is
// already queued, never wait).
func WithMaxLinger(d time.Duration) ServerOption {
	return func(c *serverConfig) error {
		if d < 0 {
			return fmt.Errorf("d500: WithMaxLinger requires a non-negative duration, got %v", d)
		}
		c.linger = d
		return nil
	}
}

// WithReplicas sets the number of independent session replicas serving
// requests (default 1). Sessions are single-goroutine by contract, so
// serving concurrency comes from replicas; all replicas share the model
// weights and the kernel worker pool.
func WithReplicas(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 1 {
			return fmt.Errorf("d500: WithReplicas requires at least 1 replica, got %d", n)
		}
		c.replicas = n
		return nil
	}
}

// WithMaxReplicas enables queue-driven autoscaling: the pool starts at
// WithReplicas (the floor it also shrinks back to when idle) and grows
// toward n while admission-queue occupancy stays above the scale-up
// high-water mark. Scaled-down replicas retire by draining — a replica
// is never stopped mid-batch. The default (n equal to the replica floor)
// keeps the pool fixed.
func WithMaxReplicas(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 1 {
			return fmt.Errorf("d500: WithMaxReplicas requires at least 1 replica, got %d", n)
		}
		c.maxReplicas = n
		return nil
	}
}

// WithScaleInterval sets how often the autoscaler samples queue occupancy
// (default 25ms). Only meaningful with WithMaxReplicas.
func WithScaleInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) error {
		if d <= 0 {
			return fmt.Errorf("d500: WithScaleInterval requires a positive duration, got %v", d)
		}
		c.scaleEvery = d
		return nil
	}
}

// WithScaleUpOccupancy sets the queue-occupancy fraction at or above
// which the autoscaler adds a replica (default 0.5). Only meaningful with
// WithMaxReplicas.
func WithScaleUpOccupancy(frac float64) ServerOption {
	return func(c *serverConfig) error {
		if frac <= 0 || frac > 1 {
			return fmt.Errorf("d500: WithScaleUpOccupancy requires a fraction in (0, 1], got %g", frac)
		}
		c.scaleUpOcc = frac
		return nil
	}
}

// WithScaleDownIdle sets how long the queue must stay empty before a
// scaled-up replica is retired (default 500ms). Only meaningful with
// WithMaxReplicas.
func WithScaleDownIdle(d time.Duration) ServerOption {
	return func(c *serverConfig) error {
		if d <= 0 {
			return fmt.Errorf("d500: WithScaleDownIdle requires a positive duration, got %v", d)
		}
		c.scaleIdle = d
		return nil
	}
}

// WithQueueDepth bounds the admission queue (default replicas×batch×4).
// A full queue rejects requests with ErrOverloaded.
func WithQueueDepth(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 1 {
			return fmt.Errorf("d500: WithQueueDepth requires at least 1 slot, got %d", n)
		}
		c.queue = n
		return nil
	}
}

// WithRespawn makes the server rebuild a crashed replica from the shared
// model weights and return it to the pool. A replica crash — a panic
// recovered inside its pass — always fails that replica's in-flight
// requests with ErrReplicaCrash and emits a ReplicaDown event; with
// respawn enabled, serving capacity recovers instead of staying degraded.
func WithRespawn() ServerOption {
	return func(c *serverConfig) error {
		c.respawn = true
		return nil
	}
}

// WithSession forwards Session options to the server's replicas: the
// framework profile, the event hook and tracing all mean the same thing
// they mean for a Session — replicas are built by the same function
// Session.Open uses. The replicas share the model's parameter tensors.
func WithSession(opts ...Option) ServerOption {
	return func(c *serverConfig) error {
		c.sess = append(c.sess, opts...)
		return nil
	}
}

// Server is the online-inference front end over a pool of session
// replicas: single-item Infer calls are coalesced by a dynamic
// micro-batching queue into batched tensor executions and split back per
// request. Construct with NewServer; all methods are safe for concurrent
// use — Server is the one concurrency-safe entry point of the package
// (see the Session concurrency contract).
type Server struct {
	inner *serve.Server
}

// NewServer builds a serving pool over the model. The replicas are
// configured through WithSession (same vocabulary as New) and share the
// model's parameter tensors and the kernel worker pool.
//
// Every executed micro-batch is reported to the session hook (WithSession
// + WithHook) as a ServeSample event.
func NewServer(m *graph.Model, opts ...ServerOption) (*Server, error) {
	if m == nil {
		return nil, errors.New("d500: NewServer requires a non-nil model")
	}
	cfg := serverConfig{maxBatch: serve.DefaultMaxBatch, replicas: serve.DefaultReplicas}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.maxReplicas > 0 && cfg.maxReplicas < cfg.replicas {
		return nil, fmt.Errorf("d500: WithMaxReplicas(%d) is below the replica floor %d", cfg.maxReplicas, cfg.replicas)
	}
	// Resolve the replica template exactly like New resolves a Session, so
	// option validation and defaulting stay in one place.
	base, err := New(cfg.sess...)
	if err != nil {
		return nil, err
	}

	factory := func() (executor.GraphExecutor, error) {
		return base.newExecutor(m)
	}

	var observe func(serve.Sample)
	var onDown func(int, error, bool)
	var onScale func(int, bool)
	if hook := base.cfg.hook; hook != nil {
		observe = func(sm serve.Sample) {
			hook(ServeSample{
				Replica:   sm.Replica,
				Requests:  sm.Requests,
				Rows:      sm.Rows,
				QueueWait: sm.QueueWait,
				Exec:      sm.Exec,
			})
		}
		onDown = func(replica int, cause error, respawned bool) {
			hook(ReplicaDown{Replica: replica, Err: cause, Respawned: respawned})
		}
		onScale = func(replicas int, up bool) {
			hook(ServeScale{Replicas: replicas, Up: up})
		}
	}

	inner, err := serve.New(serve.Options{
		MaxBatch:         cfg.maxBatch,
		MaxLinger:        cfg.linger,
		Replicas:         cfg.replicas,
		MaxReplicas:      cfg.maxReplicas,
		QueueDepth:       cfg.queue,
		ScaleInterval:    cfg.scaleEvery,
		ScaleUpOccupancy: cfg.scaleUpOcc,
		ScaleDownIdle:    cfg.scaleIdle,
		NewExecutor:      factory,
		Observe:          observe,
		Respawn:          cfg.respawn,
		OnReplicaDown:    onDown,
		OnScale:          onScale,
		Tracer:           base.tracer.raw(),
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Infer runs one inference request through the micro-batching pipeline.
// Feeds must supply exactly the model's declared inputs, each with a
// leading batch dimension; row-aligned outputs come back split to this
// request's rows, batch-scoped outputs (a batch-mean loss) as copies.
// ctx is honored while the request is queued; admission overload returns
// ErrOverloaded immediately.
func (s *Server) Infer(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return s.inner.Infer(ctx, feeds)
}

// Close stops admission (Infer then returns ErrServerClosed), drains the
// queued requests and waits for the replicas to finish. If ctx expires
// first, in-flight passes are cancelled and Close returns ctx.Err().
func (s *Server) Close(ctx context.Context) error { return s.inner.Close(ctx) }

// ServerDefaults describes the serving configuration NewServer resolves
// when no options are given — the discoverability surface d500info
// renders next to the experiment registry.
type ServerDefaults struct {
	// MaxBatch / MaxLinger / Replicas / QueueDepth mirror the ServerOption
	// defaults.
	MaxBatch   int
	MaxLinger  time.Duration
	Replicas   int
	QueueDepth int
	// MaxReplicas / ScaleInterval / ScaleUpOccupancy / ScaleDownIdle mirror
	// the autoscaler defaults (MaxReplicas equal to Replicas: fixed pool).
	MaxReplicas      int
	ScaleInterval    time.Duration
	ScaleUpOccupancy float64
	ScaleDownIdle    time.Duration
	// DrainGrace / ShedOccupancy mirror the registry defaults.
	DrainGrace    time.Duration
	ShedOccupancy float64
	// PoolWorkers is the shared kernel worker budget replicas draw from.
	PoolWorkers int
	// Frameworks lists the framework profiles WithSession(WithFramework)
	// accepts for replicas.
	Frameworks []string
}

// DefaultServerConfig returns the documented NewServer defaults —
// resolved from the same constants serve.New applies, so the rendered
// defaults can never drift from the running ones.
func DefaultServerConfig() ServerDefaults {
	return ServerDefaults{
		MaxBatch:         serve.DefaultMaxBatch,
		MaxLinger:        0,
		Replicas:         serve.DefaultReplicas,
		QueueDepth:       serve.DefaultQueueDepth(serve.DefaultReplicas, serve.DefaultMaxBatch),
		MaxReplicas:      serve.DefaultReplicas,
		ScaleInterval:    serve.DefaultScaleInterval,
		ScaleUpOccupancy: serve.DefaultScaleUpOccupancy,
		ScaleDownIdle:    serve.DefaultScaleDownIdle,
		DrainGrace:       serve.DefaultDrainGrace,
		ShedOccupancy:    serve.DefaultShedOccupancy,
		PoolWorkers:      kernels.Default.Workers(),
		Frameworks:       Frameworks(),
	}
}
