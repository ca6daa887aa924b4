// Package serve is the online-inference serving subsystem: it turns the
// batch-oriented execution stack (executor + model zoo) into a concurrent
// request/response service, the operating condition the paper's benchmark
// philosophy (measure the full stack under realistic load) leaves to the
// serving layer.
//
// Four pieces compose:
//
//   - a dynamic micro-batching queue: single-item Infer requests are
//     coalesced into one batched tensor execution, flushing when the batch
//     reaches MaxBatch rows or when MaxLinger has elapsed since the batch
//     opened; batched outputs are split back per request;
//   - a session-replica pool: independent executors built over one shared
//     model (parameter tensors are referenced, not copied, so all replicas
//     serve the same weights) — the executor contract is single-goroutine,
//     so serving concurrency comes from replicas, not from sharing one
//     executor;
//   - admission control: a bounded queue with typed backpressure errors
//     (ErrQueueFull when the queue is at capacity, ErrClosed after
//     shutdown began), so overload is surfaced to clients immediately
//     instead of accumulating unbounded latency;
//   - an optional queue-occupancy autoscaler: when MaxReplicas exceeds
//     Replicas, a scaler goroutine samples the admission queue every
//     ScaleInterval and grows the pool while occupancy sits at or above
//     the ScaleUpOccupancy high-water mark, then retires surplus replicas
//     (draining — a retiring worker finishes its current batch, never
//     aborts mid-batch) once the queue has been empty for ScaleDownIdle.
//
// Multi-tenant serving stacks a Registry on top: one named entry per
// model, each with its own queue + replica pool, hot load/unload and
// atomic version swap (see registry.go).
//
// Public entry points: New (with Options), Server.Infer, Server.Stats and
// Server.Close. The HTTP JSON front end is Registry.Handler; a single model
// is served over HTTP as a one-model registry (NewRegistry, Load,
// Handler(nil)), whose POST /v1/infer routes to the sole loaded model. Per-request
// context deadlines are honored while a request is queued; once its batch
// is dispatched the pass runs to completion and abandoned results are
// discarded.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// Typed admission and request errors. Callers (and the HTTP front end)
// test with errors.Is to map them onto backpressure responses.
var (
	// ErrQueueFull is the backpressure signal: the bounded admission queue
	// is at capacity and the request was rejected without queueing.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed is returned by Infer after Close has begun.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadRequest wraps feed-validation failures (missing inputs, shape
	// mismatches, disagreeing batch dimensions).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrReplicaCrash marks requests that were in flight on a replica whose
	// pass panicked. The panic is recovered, the replica is taken out of the
	// pool (and respawned when Options.Respawn is set), and the pool keeps
	// serving at degraded capacity.
	ErrReplicaCrash = errors.New("serve: replica crashed")
)

// Serving defaults, exported so the public option layer (d500) and the
// discoverability surfaces (d500info) resolve and render the same values
// serve.New applies.
const (
	// DefaultMaxBatch is the flush size when Options.MaxBatch is zero.
	DefaultMaxBatch = 8
	// DefaultReplicas is the replica count when Options.Replicas is zero.
	DefaultReplicas = 1
	// defaultQueueFactor sizes the admission queue per replica×batch.
	defaultQueueFactor = 4
	// DefaultScaleInterval is the autoscaler's queue-sampling period when
	// Options.ScaleInterval is zero.
	DefaultScaleInterval = 25 * time.Millisecond
	// DefaultScaleUpOccupancy is the queue-occupancy high-water fraction
	// (queued/capacity) at which the autoscaler adds a replica, when
	// Options.ScaleUpOccupancy is zero.
	DefaultScaleUpOccupancy = 0.5
	// DefaultScaleDownIdle is how long the queue must stay empty before a
	// surplus replica is retired, when Options.ScaleDownIdle is zero.
	DefaultScaleDownIdle = 500 * time.Millisecond
)

// DefaultQueueDepth is the admission-queue bound resolved when
// Options.QueueDepth is zero: replicas × maxBatch × 4. An autoscaling
// server sizes it from MaxReplicas so the queue can absorb the burst that
// justifies scaling up.
func DefaultQueueDepth(replicas, maxBatch int) int {
	return replicas * maxBatch * defaultQueueFactor
}

// Options configures a Server. The zero value of every field selects a
// sensible default (see the field comments); NewExecutor is required.
type Options struct {
	// MaxBatch is the row count at which a forming batch flushes
	// immediately (default 8). 1 disables micro-batching: every request
	// executes alone. A single multi-row request larger than MaxBatch is
	// still served (as its own batch), and the final coalesced request of
	// a batch may overshoot MaxBatch when requests carry multiple rows —
	// MaxBatch is a flush threshold, not a hard cap.
	MaxBatch int
	// MaxLinger bounds how long a non-full batch waits for more requests
	// after its first request is picked up (default 0: flush with whatever
	// is already queued, never wait).
	MaxLinger time.Duration
	// Replicas is the baseline number of independent executor replicas
	// serving requests (default 1). Replicas share model weights; each
	// runs its passes on its own goroutine. With autoscaling enabled this
	// is the floor the pool never shrinks below.
	Replicas int
	// MaxReplicas, when greater than Replicas, enables the queue-occupancy
	// autoscaler: the pool grows toward MaxReplicas under sustained
	// backlog and shrinks back to Replicas when idle. Zero (or any value
	// ≤ Replicas) disables autoscaling and fixes the pool at Replicas.
	MaxReplicas int
	// ScaleInterval is the autoscaler's sampling period (default 25ms).
	ScaleInterval time.Duration
	// ScaleUpOccupancy is the queue-occupancy fraction (queued requests /
	// queue capacity) at or above which a sampled tick adds one replica
	// (default 0.5).
	ScaleUpOccupancy float64
	// ScaleDownIdle is how long the queue must remain empty (no request
	// dispatched, nothing queued) before one surplus replica is retired
	// per tick (default 500ms). Retirement drains: the replica finishes
	// the batch it is running and exits between batches.
	ScaleDownIdle time.Duration
	// QueueDepth bounds the admission queue (default
	// max(Replicas, MaxReplicas)*MaxBatch*4). A full queue rejects with
	// ErrQueueFull.
	QueueDepth int
	// NewExecutor builds one replica executor. It is called Replicas times
	// at New and again for every respawn and autoscale-up; all replicas
	// must be built over the same model so they share parameter tensors.
	// Required.
	NewExecutor func() (executor.GraphExecutor, error)
	// Observe, when non-nil, receives one Sample per executed batch.
	// Calls are serialized across replicas, so the observer need not be
	// thread-safe (the d500 Hook contract).
	Observe func(Sample)
	// Respawn rebuilds a crashed replica from the shared weights (via
	// NewExecutor) and returns it to the pool. When unset a crashed replica
	// stays dead and the pool serves at permanently degraded capacity.
	Respawn bool
	// OnReplicaDown, when non-nil, is called once per replica crash with
	// the replica id, the recovered panic (wrapped in ErrReplicaCrash),
	// and whether the replica was respawned. Calls are serialized with
	// Observe, so the same single-threaded observer may back both.
	OnReplicaDown func(replica int, cause error, respawned bool)
	// OnScale, when non-nil, is called after every autoscaler decision
	// with the pool size the decision targets and the direction (up=true
	// for scale-up). Calls are serialized with Observe.
	OnScale func(replicas int, up bool)
	// Tracer, when non-nil, spans every request's lifetime — admit, queue
	// wait, batch assembly, replica execution (with per-op executor spans),
	// split/respond — into its flight recorder. A batch span links the
	// traces of every request it coalesced. Nil disables tracing at the
	// cost of a few nil checks per request.
	Tracer *trace.Tracer
}

// Sample is the per-batch observation emitted through Options.Observe:
// one executed micro-batch with its coalescing and timing facts.
type Sample struct {
	// Replica identifies the executor replica that ran the batch.
	Replica int
	// Requests and Rows describe the coalesced batch.
	Requests, Rows int
	// QueueWait is how long the batch's oldest request waited between
	// admission and dispatch.
	QueueWait time.Duration
	// Exec is the batched forward-pass duration.
	Exec time.Duration
}

// request is one queued inference request.
type request struct {
	ctx      context.Context
	feeds    map[string]*tensor.Tensor
	rows     int
	enqueued time.Time
	done     chan result
	// span is the request's root trace span; queueSpan the admit→dispatch
	// child. Both nil on untraced requests.
	span, queueSpan *trace.Span
	// answered is set by finish. It is only touched by the single worker
	// goroutine that owns the request's batch, so crash recovery can tell
	// which requests of an interrupted batch still need an answer.
	answered bool
}

type result struct {
	outs map[string]*tensor.Tensor
	err  error
}

// finish answers the request. Every path records the request's outcome —
// its Stats counters, then the Observe sample or OnReplicaDown event —
// before it calls finish, so a client that reads Stats or the metrics fed by
// those hooks right after its reply always finds itself counted: served +
// failed + expired equals the number of answered admissions at every instant
// a client can observe.
func (r *request) finish(outs map[string]*tensor.Tensor, err error) {
	r.answered = true
	// The trace root ends exactly when the request is answered, on every
	// path (served, expired, failed, crashed). Batch and execute spans were
	// already ended by then, so they are never dropped as late children.
	r.queueSpan.End() // idempotent; normally already ended at dispatch
	r.span.SetError(err)
	r.span.End()
	r.done <- result{outs: outs, err: err} // buffered(1), single sender
}

// Server is the serving front: an admission queue feeding a pool of
// executor replicas through the micro-batcher. Construct with New; Server
// methods are safe for concurrent use by any number of goroutines.
type Server struct {
	opts    Options
	inputs  []graph.TensorInfo
	outputs []string

	queue   chan *request
	ctx     context.Context
	stop    context.CancelFunc
	closing chan struct{} // closed by Close before waiting; stops the scaler
	wg      sync.WaitGroup

	mu     sync.RWMutex // guards closed vs queue sends
	closed bool

	observeMu sync.Mutex

	statsMu  sync.Mutex
	stats    statsAccum
	live     int                   // replicas currently serving (decremented on crash/retire)
	stops    map[int]chan struct{} // per-worker retire signals, keyed by replica id
	nextID   int
	lastBusy time.Time // last time any worker dispatched a request
}

// statsAccum is the mutable counter set behind Server.Stats.
type statsAccum struct {
	requests, rows, batches  uint64
	rejected, expired, fails uint64
	crashes, respawns        uint64
	scaleUps, scaleDowns     uint64
	queueWait, execTime      time.Duration
}

// New builds the replica pool and starts one batching worker per replica
// (plus the autoscaler goroutine when MaxReplicas > Replicas). Every
// replica is switched to inference mode (training-dependent operators
// like dropout and batch normalization serve their inference behaviour).
func New(opts Options) (*Server, error) {
	if opts.NewExecutor == nil {
		return nil, errors.New("serve: Options.NewExecutor is required")
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxLinger < 0 {
		opts.MaxLinger = 0
	}
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	if opts.MaxReplicas < opts.Replicas {
		opts.MaxReplicas = opts.Replicas
	}
	if opts.ScaleInterval <= 0 {
		opts.ScaleInterval = DefaultScaleInterval
	}
	if opts.ScaleUpOccupancy <= 0 || opts.ScaleUpOccupancy > 1 {
		opts.ScaleUpOccupancy = DefaultScaleUpOccupancy
	}
	if opts.ScaleDownIdle <= 0 {
		opts.ScaleDownIdle = DefaultScaleDownIdle
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth(opts.MaxReplicas, opts.MaxBatch)
	}
	s := &Server{
		opts:     opts,
		queue:    make(chan *request, opts.QueueDepth),
		closing:  make(chan struct{}),
		stops:    make(map[int]chan struct{}),
		lastBusy: time.Now(),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	execs := make([]executor.GraphExecutor, 0, opts.Replicas)
	for i := 0; i < opts.Replicas; i++ {
		e, err := opts.NewExecutor()
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("serve: building replica %d: %w", i, err)
		}
		e.SetTraining(false)
		execs = append(execs, e)
	}
	m := execs[0].Network().Model
	s.inputs = m.Inputs
	s.outputs = m.Outputs
	for _, e := range execs {
		s.startWorker(e)
	}
	if opts.MaxReplicas > opts.Replicas {
		s.wg.Add(1)
		go s.scaler()
	}
	return s, nil
}

// Infer runs one inference request through the micro-batching pipeline
// and returns the model's declared outputs for this request's rows.
//
// Feeds must supply exactly the model's declared inputs; every feed's
// leading dimension is the request's row count and must agree across
// feeds. Outputs whose leading dimension equals the executed batch's
// total row count are split back per request (each caller receives only
// its own rows); any other output — a batch-mean loss, a scalar metric —
// is batch-scoped and returned to every request of the batch as a copy.
//
// ctx is honored while the request is queued: cancellation or an expired
// deadline returns ctx.Err() and the request's slot is discarded when its
// batch is formed. Once the batch is dispatched the pass runs to
// completion; a caller that timed out simply never observes the result.
func (s *Server) Infer(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rows, err := s.validateFeeds(feeds)
	if err != nil {
		return nil, err
	}
	req := &request{
		ctx:      ctx,
		feeds:    feeds,
		rows:     rows,
		enqueued: time.Now(),
		done:     make(chan result, 1),
	}
	if tr := s.opts.Tracer; tr.Enabled() {
		if rm, ok := trace.RemoteFromContext(ctx); ok {
			req.span = tr.StartRemote(rm, "serve.request", trace.Int("rows", rows))
		} else {
			req.span = tr.StartRoot("serve.request", trace.Int("rows", rows))
		}
		if c := trace.CaptureFromContext(ctx); c != nil && req.span != nil {
			c.Trace, c.Span = req.span.TraceID(), req.span.SpanID()
		}
		req.queueSpan = req.span.StartChild("serve.queue")
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.endRejected(req, ErrClosed)
		return nil, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.statsMu.Lock()
		s.stats.rejected++
		s.statsMu.Unlock()
		s.endRejected(req, ErrQueueFull)
		return nil, ErrQueueFull
	}
	select {
	case res := <-req.done:
		return res.outs, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// endRejected closes a rejected (never enqueued) request's spans with the
// rejection error, so admission failures are tail-sampled as error traces.
func (s *Server) endRejected(req *request, err error) {
	if req.span == nil {
		return
	}
	req.queueSpan.End()
	req.span.SetError(err)
	req.span.End()
}

// validateFeeds checks the request against the model's declared inputs
// and returns its row count.
func (s *Server) validateFeeds(feeds map[string]*tensor.Tensor) (int, error) {
	if len(feeds) != len(s.inputs) {
		return 0, fmt.Errorf("%w: got %d feeds, model declares %d inputs %v",
			ErrBadRequest, len(feeds), len(s.inputs), inputNames(s.inputs))
	}
	rows := 0
	for _, in := range s.inputs {
		t, ok := feeds[in.Name]
		if !ok || t == nil {
			return 0, fmt.Errorf("%w: missing feed %q (model inputs: %v)", ErrBadRequest, in.Name, inputNames(s.inputs))
		}
		if t.Rank() != len(in.Shape) || t.Rank() < 1 {
			return 0, fmt.Errorf("%w: feed %q has rank %d, model declares shape %v", ErrBadRequest, in.Name, t.Rank(), in.Shape)
		}
		for i := 1; i < len(in.Shape); i++ {
			if in.Shape[i] >= 0 && t.Dim(i) != in.Shape[i] {
				return 0, fmt.Errorf("%w: feed %q has shape %v, model declares %v", ErrBadRequest, in.Name, t.Shape(), in.Shape)
			}
		}
		r := t.Dim(0)
		if r < 1 {
			return 0, fmt.Errorf("%w: feed %q has no rows", ErrBadRequest, in.Name)
		}
		if rows == 0 {
			rows = r
		} else if r != rows {
			return 0, fmt.Errorf("%w: feeds disagree on the batch dimension (%d vs %d rows)", ErrBadRequest, rows, r)
		}
	}
	return rows, nil
}

func inputNames(infos []graph.TensorInfo) []string {
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return names
}

// startWorker registers a replica under a fresh id and launches its
// serving goroutine. Callers pass an executor already switched to
// inference mode.
func (s *Server) startWorker(e executor.GraphExecutor) {
	s.statsMu.Lock()
	id := s.nextID
	s.nextID++
	stopc := make(chan struct{})
	s.stops[id] = stopc
	s.live++
	s.statsMu.Unlock()
	s.wg.Add(1)
	go s.worker(id, e, stopc)
}

// retire is a worker's exit path for an autoscale-down: deregister and
// leave the pool. The retiring worker has already finished (or never
// started) its last batch — retirement drains, it never aborts a pass.
func (s *Server) retire(id int) {
	s.statsMu.Lock()
	delete(s.stops, id) // usually already removed by the scaler; idempotent
	s.live--
	s.statsMu.Unlock()
}

// worker is one replica's serving loop: pull a request, linger to coalesce
// a batch, execute, split, respond. A panicking pass does not unwind past
// runBatch: the worker hands the wreckage to handleCrash and exits, leaving
// the rest of the pool serving. A closed stop channel retires the worker
// between batches.
func (s *Server) worker(id int, e executor.GraphExecutor, stopc chan struct{}) {
	defer s.wg.Done()
	for {
		// A pending retire wins over new work so scale-down converges even
		// under sustained load.
		select {
		case <-stopc:
			s.retire(id)
			return
		default:
		}
		var req *request
		var ok bool
		select {
		case <-stopc:
			s.retire(id)
			return
		case req, ok = <-s.queue:
			if !ok {
				return
			}
		}
		s.statsMu.Lock()
		s.lastBusy = time.Now()
		s.statsMu.Unlock()
		batch := []*request{req}
		rows := req.rows
		switch {
		case rows >= s.opts.MaxBatch:
			// Already full: no coalescing needed.
		case s.opts.MaxLinger <= 0:
			// Zero linger means "flush with whatever is already queued":
			// drain non-blocking. (A zero-duration timer would race the
			// queue receive in a select and stop coalescing after ~one
			// extra request.)
		drain:
			for rows < s.opts.MaxBatch {
				select {
				case more, ok := <-s.queue:
					if !ok {
						break drain
					}
					batch = append(batch, more)
					rows += more.rows
				default:
					break drain
				}
			}
		default:
			timer := time.NewTimer(s.opts.MaxLinger)
		collect:
			for rows < s.opts.MaxBatch {
				select {
				case more, ok := <-s.queue:
					if !ok {
						break collect
					}
					batch = append(batch, more)
					rows += more.rows
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		if crashErr := s.runBatch(id, e, batch); crashErr != nil {
			s.handleCrash(id, crashErr, batch)
			return
		}
	}
}

// runBatch executes one batch, converting a panic anywhere in the pass into
// an ErrReplicaCrash-wrapped error instead of unwinding the process.
func (s *Server) runBatch(id int, e executor.GraphExecutor, batch []*request) (crashErr error) {
	defer func() {
		if p := recover(); p != nil {
			crashErr = fmt.Errorf("%w: replica %d panicked: %v", ErrReplicaCrash, id, p)
		}
	}()
	s.execute(id, e, batch)
	return nil
}

// handleCrash is the crashed worker's last act: take the replica out of the
// live count, optionally respawn it from the shared weights, notify the
// observer, and then answer the interrupted batch's unanswered requests
// with the crash error. If the last replica dies without a respawn, a
// drainer goroutine keeps failing queued requests so callers never hang and
// Close still completes.
func (s *Server) handleCrash(id int, crashErr error, batch []*request) {
	var unanswered []*request
	for _, r := range batch {
		if !r.answered {
			unanswered = append(unanswered, r)
		}
	}
	s.statsMu.Lock()
	s.stats.fails += uint64(len(unanswered))
	s.stats.crashes++
	delete(s.stops, id)
	s.live--
	s.statsMu.Unlock()

	respawned := false
	if s.opts.Respawn {
		s.mu.RLock()
		closed := s.closed
		s.mu.RUnlock()
		if !closed {
			if e, err := s.opts.NewExecutor(); err == nil {
				e.SetTraining(false)
				s.statsMu.Lock()
				s.stats.respawns++
				s.statsMu.Unlock()
				s.startWorker(e)
				respawned = true
			}
		}
	}
	if !respawned {
		s.statsMu.Lock()
		lastDown := s.live == 0
		s.statsMu.Unlock()
		if lastDown {
			s.wg.Add(1)
			go s.drainDead()
		}
	}
	if s.opts.OnReplicaDown != nil {
		s.observeMu.Lock()
		s.opts.OnReplicaDown(id, crashErr, respawned)
		s.observeMu.Unlock()
	}
	for _, r := range unanswered {
		r.finish(nil, crashErr)
	}
}

// drainDead fails queued requests once no replica is left to serve them.
func (s *Server) drainDead() {
	defer s.wg.Done()
	for req := range s.queue {
		s.statsMu.Lock()
		s.stats.fails++
		s.statsMu.Unlock()
		req.finish(nil, fmt.Errorf("%w: no live replicas", ErrReplicaCrash))
	}
}

// scaler is the autoscaling loop, started when MaxReplicas > Replicas. It
// samples the admission queue every ScaleInterval: occupancy at or above
// the high-water mark grows the pool by one replica per tick (up to
// MaxReplicas); an empty queue that has dispatched nothing for
// ScaleDownIdle retires one surplus replica per tick (down to Replicas).
// Decisions are based on the undrained pool size (workers not yet asked to
// retire), so a slow drain cannot trigger a second retirement below the
// floor.
func (s *Server) scaler() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.ScaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-s.ctx.Done():
			return
		case <-ticker.C:
		}
		depth := len(s.queue)
		occ := float64(depth) / float64(cap(s.queue))
		s.statsMu.Lock()
		pool := len(s.stops)
		idle := time.Since(s.lastBusy)
		s.statsMu.Unlock()
		switch {
		case pool == 0:
			// Every replica crashed without respawn: the pool is dead, not
			// under-provisioned. Leave it to drainDead.
		case occ >= s.opts.ScaleUpOccupancy && pool < s.opts.MaxReplicas:
			e, err := s.opts.NewExecutor()
			if err != nil {
				continue
			}
			e.SetTraining(false)
			// The decision is counted and reported before the new replica
			// can serve, so whoever sees its work sees the scale-up.
			s.statsMu.Lock()
			s.stats.scaleUps++
			target := len(s.stops) + 1
			s.statsMu.Unlock()
			s.notifyScale(target, true)
			s.startWorker(e)
		case depth == 0 && pool > s.opts.Replicas && idle >= s.opts.ScaleDownIdle:
			s.statsMu.Lock()
			var victim chan struct{}
			for vid, c := range s.stops {
				victim = c
				delete(s.stops, vid)
				break
			}
			if victim != nil {
				s.stats.scaleDowns++
			}
			target := len(s.stops)
			s.statsMu.Unlock()
			if victim != nil {
				close(victim)
				s.notifyScale(target, false)
			}
		}
	}
}

// notifyScale reports an autoscaler decision through OnScale, serialized
// with Observe. The reported pool size is the decision's target: a
// scale-up's replica has not started yet, and the retiring replica of a
// scale-down may still be draining its last batch.
func (s *Server) notifyScale(pool int, up bool) {
	if s.opts.OnScale == nil {
		return
	}
	s.observeMu.Lock()
	s.opts.OnScale(pool, up)
	s.observeMu.Unlock()
}

// queueOccupancy is the admission queue's current fill fraction. The
// Registry's priority shedding uses it to decide whether a model is under
// pressure.
func (s *Server) queueOccupancy() float64 {
	return float64(len(s.queue)) / float64(cap(s.queue))
}

// execute runs one coalesced batch on a replica and distributes results.
func (s *Server) execute(id int, e executor.GraphExecutor, batch []*request) {
	// Requests whose context expired while queued are answered with their
	// context error and excluded from the pass.
	live := make([]*request, 0, len(batch))
	var expired []*request
	for _, r := range batch {
		if r.ctx.Err() != nil {
			expired = append(expired, r)
		} else {
			live = append(live, r)
		}
	}
	if len(expired) > 0 {
		s.statsMu.Lock()
		s.stats.expired += uint64(len(expired))
		s.statsMu.Unlock()
		for _, r := range expired {
			r.finish(nil, r.ctx.Err())
		}
	}
	if len(live) == 0 {
		return
	}

	rows := 0
	host := live[0] // oldest live request: its trace hosts the batch span
	for _, r := range live {
		rows += r.rows
		if r.enqueued.Before(host.enqueued) {
			host = r
		}
	}
	oldest := host.enqueued

	// The queue wait ends at dispatch; the batch span lives in the oldest
	// request's trace and links every coalesced request's trace (and each
	// non-host request links back), so the coalescing is navigable from
	// any of the N request traces.
	batchSpan := host.span.StartChild("serve.batch",
		trace.Int("requests", len(live)), trace.Int("rows", rows), trace.Int("replica", id))
	for _, r := range live {
		r.queueSpan.End()
		batchSpan.Link(r.span.TraceID())
		if r != host {
			r.span.Link(batchSpan.TraceID())
		}
	}
	execSpan := batchSpan.StartChild("serve.execute")
	// Crash safety: a panicking pass unwinds through here before runBatch
	// recovers; End is idempotent, so the normal-path explicit ends below
	// make these defers no-ops.
	defer batchSpan.End()
	defer execSpan.End()

	feeds, err := s.assembleFeeds(live)
	var outs map[string]*tensor.Tensor
	start := time.Now()
	if err == nil {
		// The pass runs under the server's lifetime context: per-request
		// deadlines stop applying once the batch is dispatched (documented
		// on Infer), while Close-with-deadline can still abort it. A traced
		// batch threads its execute span down so the executor parents its
		// per-op spans on it.
		passCtx := s.ctx
		if execSpan != nil {
			passCtx = trace.NewContext(passCtx, execSpan)
		}
		outs, err = e.Inference(passCtx, feeds)
	}
	execTime := time.Since(start)
	wait := start.Sub(oldest)

	// End order matters for the tail-sampling state machine: execute, then
	// batch, then (via finish) the request roots — children never outlive
	// the root that records them.
	execSpan.SetError(err)
	execSpan.End()
	batchSpan.AddAttrs(trace.Duration("queue_wait", wait))
	batchSpan.End()

	if err != nil {
		s.statsMu.Lock()
		s.stats.fails += uint64(len(live))
		s.statsMu.Unlock()
		for _, r := range live {
			r.finish(nil, fmt.Errorf("serve: batched inference failed: %w", err))
		}
		return
	}

	s.statsMu.Lock()
	s.stats.requests += uint64(len(live))
	s.stats.rows += uint64(rows)
	s.stats.batches++
	s.stats.queueWait += wait
	s.stats.execTime += execTime
	s.statsMu.Unlock()
	if s.opts.Observe != nil {
		s.observeMu.Lock()
		s.opts.Observe(Sample{
			Replica:   id,
			Requests:  len(live),
			Rows:      rows,
			QueueWait: wait,
			Exec:      execTime,
		})
		s.observeMu.Unlock()
	}

	// Inference outputs belong to the caller, so a batch of one request
	// hands them over whole.
	if len(live) == 1 {
		live[0].finish(outs, nil)
		return
	}
	// Split row-aligned outputs per request; copy batch-scoped ones. Each
	// request is answered as soon as its own rows are cut, so its caller can
	// send again while the rest of the batch is still being split: answering
	// only after the whole batch was split measured about 6 % less
	// throughput on the benchmark's serve_mlp_batched workload (2-CPU host).
	off := 0
	for _, r := range live {
		res := make(map[string]*tensor.Tensor, len(outs))
		for name, t := range outs {
			if t.Rank() >= 1 && t.Dim(0) == rows {
				// Cannot fail: the requests' rows sum to rows, so
				// [off, off+r.rows) always lies inside the batch.
				res[name], _ = t.SliceRows(off, off+r.rows)
				continue
			}
			res[name] = t.Clone()
		}
		off += r.rows
		r.finish(res, nil)
	}
}

// assembleFeeds concatenates the batch's per-request feeds along the row
// dimension (pass-through for a batch of one).
func (s *Server) assembleFeeds(batch []*request) (map[string]*tensor.Tensor, error) {
	if len(batch) == 1 {
		return batch[0].feeds, nil
	}
	feeds := make(map[string]*tensor.Tensor, len(s.inputs))
	parts := make([]*tensor.Tensor, len(batch))
	for _, in := range s.inputs {
		for i, r := range batch {
			parts[i] = r.feeds[in.Name]
		}
		cat, err := tensor.ConcatRows(parts...)
		if err != nil {
			return nil, err
		}
		feeds[in.Name] = cat
	}
	return feeds, nil
}

// Close stops admission (subsequent Infer calls return ErrClosed), drains
// every queued request through the replicas, and waits for the workers to
// finish. If ctx expires first, in-flight passes are cancelled — queued
// and running requests then fail with the cancellation error as soon as
// their pass observes it — and Close returns ctx.Err() without waiting
// for that to happen. Close is idempotent; the first call's outcome wins.
func (s *Server) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.closing)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stop()
		return nil
	case <-ctx.Done():
		s.stop() // abort in-flight passes between node dispatches
		return ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the server's serving counters.
type Stats struct {
	// Requests / Rows / Batches count successfully served work; Occupancy
	// is Rows/Batches, the micro-batcher's mean fill.
	Requests  uint64  `json:"requests"`
	Rows      uint64  `json:"rows"`
	Batches   uint64  `json:"batches"`
	Occupancy float64 `json:"occupancy"`
	// Rejected counts ErrQueueFull admissions, Expired requests whose
	// context ended while queued, Failed requests whose batch errored
	// (including requests answered with ErrReplicaCrash).
	Rejected uint64 `json:"rejected"`
	Expired  uint64 `json:"expired"`
	Failed   uint64 `json:"failed"`
	// Crashes counts recovered replica panics; Respawns how many of those
	// replicas were rebuilt. LiveReplicas is the current serving capacity.
	Crashes      uint64 `json:"crashes"`
	Respawns     uint64 `json:"respawns"`
	LiveReplicas int    `json:"live_replicas"`
	// ScaleUps / ScaleDowns count autoscaler decisions; MaxReplicas echoes
	// the pool ceiling (equal to Replicas when autoscaling is disabled).
	ScaleUps    uint64 `json:"scale_ups"`
	ScaleDowns  uint64 `json:"scale_downs"`
	MaxReplicas int    `json:"max_replicas"`
	// AvgQueueWait / AvgExec are per-batch means (nanoseconds on the
	// wire, time.Duration JSON encoding).
	AvgQueueWait time.Duration `json:"avg_queue_wait_ns"`
	AvgExec      time.Duration `json:"avg_exec_ns"`
	// QueueDepth is the current admission-queue length; QueueCap,
	// Replicas, MaxBatch and MaxLinger echo the configuration.
	QueueDepth int           `json:"queue_depth"`
	QueueCap   int           `json:"queue_cap"`
	Replicas   int           `json:"replicas"`
	MaxBatch   int           `json:"max_batch"`
	MaxLinger  time.Duration `json:"max_linger_ns"`
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.statsMu.Lock()
	a := s.stats
	live := s.live
	s.statsMu.Unlock()
	st := Stats{
		Requests:     a.requests,
		Rows:         a.rows,
		Batches:      a.batches,
		Rejected:     a.rejected,
		Expired:      a.expired,
		Failed:       a.fails,
		Crashes:      a.crashes,
		Respawns:     a.respawns,
		LiveReplicas: live,
		ScaleUps:     a.scaleUps,
		ScaleDowns:   a.scaleDowns,
		MaxReplicas:  s.opts.MaxReplicas,
		QueueDepth:   len(s.queue),
		QueueCap:     cap(s.queue),
		Replicas:     s.opts.Replicas,
		MaxBatch:     s.opts.MaxBatch,
		MaxLinger:    s.opts.MaxLinger,
	}
	if a.batches > 0 {
		st.Occupancy = float64(a.rows) / float64(a.batches)
		st.AvgQueueWait = a.queueWait / time.Duration(a.batches)
		st.AvgExec = a.execTime / time.Duration(a.batches)
	}
	return st
}
