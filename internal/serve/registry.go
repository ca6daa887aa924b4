package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Multi-tenant errors. ErrShed wraps ErrQueueFull so the HTTP front end
// maps both onto 429 while callers can still tell a priority shed from a
// plain full queue with errors.Is(err, ErrShed).
var (
	// ErrUnknownModel is returned for requests naming a model the registry
	// does not serve (HTTP 404).
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrShed marks a low-priority admission rejected because a
	// higher-priority model's queue is under pressure. It wraps
	// ErrQueueFull, so it surfaces as backpressure (HTTP 429).
	ErrShed = fmt.Errorf("%w: admission shed (higher-priority model under pressure)", ErrQueueFull)
)

// Registry constants, exported for d500.DefaultServerConfig.
const (
	// DefaultDrainGrace bounds how long a replaced or unloaded model's
	// server may spend draining in-flight requests in the background.
	DefaultDrainGrace = 30 * time.Second
	// DefaultShedOccupancy is the queue-occupancy fraction at or above
	// which a model counts as "under pressure" for priority shedding.
	DefaultShedOccupancy = 0.5
)

// ModelSpec describes one loadable model version: an identifying version
// string, an admission priority (higher values are more important; equal
// priorities never shed each other), and the builder producing the
// version's serving pool.
type ModelSpec struct {
	// Version identifies the loaded build (a zoo tag, a checkpoint path, a
	// monotonic revision — the registry only compares it for display).
	Version string
	// Priority orders tenants for admission shedding. While any model with
	// a strictly higher priority has queue occupancy at or above the
	// registry's shed threshold, lower-priority admissions are rejected
	// with ErrShed so the pressured tenant keeps its replica pool and
	// queue to itself.
	Priority int
	// Build constructs the version's server (its own queue + replica
	// pool). Called once per Load, outside the registry lock.
	Build func() (*Server, error)
}

// modelEntry is one served tenant: the current version's server plus the
// spec facts the registry reports and routes on.
type modelEntry struct {
	srv      *Server
	version  string
	priority int
}

// Registry is the multi-tenant serving front: a mutable name → server
// table with hot load/unload, atomic version swap, and priority-based
// admission shedding. Each model owns its own admission queue and replica
// pool; the registry only routes and arbitrates.
//
// Methods are safe for concurrent use. Infer never blocks on a Load or
// Unload: swaps install the new server first and drain the old one in the
// background, so in-flight requests complete on the version that admitted
// them while new admissions route to the replacement.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*modelEntry
	closed bool

	statsMu sync.Mutex
	loads   uint64
	unloads uint64
	swaps   uint64
	sheds   uint64

	wg sync.WaitGroup // background drains
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*modelEntry)}
}

// Load installs (or replaces) the named model. The spec's Build runs
// first, outside the lock; only a successfully built server is swapped
// in, so a failing build leaves the previous version serving untouched.
// On a swap the old version's server stops admitting immediately and
// drains its in-flight requests in the background, bounded by
// DefaultDrainGrace.
func (r *Registry) Load(name string, spec ModelSpec) error {
	if name == "" {
		return fmt.Errorf("%w: empty model name", ErrBadRequest)
	}
	if spec.Build == nil {
		return fmt.Errorf("serve: loading %q: ModelSpec.Build is required", name)
	}
	srv, err := spec.Build()
	if err != nil {
		return fmt.Errorf("serve: loading %q: %w", name, err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.drainAsync(srv)
		return ErrClosed
	}
	old := r.models[name]
	r.models[name] = &modelEntry{srv: srv, version: spec.Version, priority: spec.Priority}
	r.mu.Unlock()

	r.statsMu.Lock()
	if old != nil {
		r.swaps++
	} else {
		r.loads++
	}
	r.statsMu.Unlock()
	if old != nil {
		r.drainAsync(old.srv)
	}
	return nil
}

// Unload removes the named model and drains its server in the background.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	e, ok := r.models[name]
	if ok {
		delete(r.models, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	r.statsMu.Lock()
	r.unloads++
	r.statsMu.Unlock()
	r.drainAsync(e.srv)
	return nil
}

// drainAsync retires a server in the background, bounded by
// DefaultDrainGrace.
func (r *Registry) drainAsync(srv *Server) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainGrace)
		defer cancel()
		_ = srv.Close(ctx)
	}()
}

// lookup resolves a model name to its current server, and decides whether
// the admission must be shed for priority: while any strictly
// higher-priority tenant's queue occupancy is at or above the shed
// threshold, lower-priority admissions are rejected so a spiking
// low-priority tenant cannot starve a high-priority one (and a spiking
// low-priority tenant cannot claim scheduler time that the pressured
// tenant's autoscaler needs).
func (r *Registry) lookup(name string) (*Server, error) {
	r.mu.RLock()
	e, ok := r.models[name]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	shed := false
	for _, o := range r.models {
		if o.priority > e.priority && o.srv.queueOccupancy() >= DefaultShedOccupancy {
			shed = true
			break
		}
	}
	srv := e.srv
	r.mu.RUnlock()
	if shed {
		r.statsMu.Lock()
		r.sheds++
		r.statsMu.Unlock()
		return nil, fmt.Errorf("%w: model %q", ErrShed, name)
	}
	return srv, nil
}

// Infer routes one request to the named model's server. A request that
// raced an atomic version swap (admitted against a server that closed
// before the send) is retried once against the replacement, so callers
// never observe ErrClosed from a swap — only from registry shutdown.
func (r *Registry) Infer(ctx context.Context, name string, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	srv, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	outs, err := srv.Infer(ctx, feeds)
	if err != nil && errors.Is(err, ErrClosed) {
		if retry, rerr := r.lookup(name); rerr == nil && retry != srv {
			return retry.Infer(ctx, feeds)
		}
	}
	return outs, err
}

// Get returns the named model's current server (for stats and direct
// in-process serving). The second result reports whether the model is
// loaded.
func (r *Registry) Get(name string) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, false
	}
	return e.srv, true
}

// ModelStatus is one tenant's reportable state: identity, routing facts,
// serving counters, and the input signature clients need to build feeds.
type ModelStatus struct {
	Name     string             `json:"name"`
	Version  string             `json:"version"`
	Priority int                `json:"priority"`
	Inputs   []graph.TensorInfo `json:"inputs"`
	Outputs  []string           `json:"outputs"`
	Stats    Stats              `json:"stats"`
}

// Models lists the loaded tenants sorted by name.
func (r *Registry) Models() []ModelStatus {
	r.mu.RLock()
	out := make([]ModelStatus, 0, len(r.models))
	for name, e := range r.models {
		out = append(out, ModelStatus{
			Name:     name,
			Version:  e.version,
			Priority: e.priority,
			Inputs:   e.srv.inputs,
			Outputs:  append([]string(nil), e.srv.outputs...),
			Stats:    e.srv.Stats(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegistryStats aggregates the registry's lifecycle counters and the sum
// of every loaded model's serving counters.
type RegistryStats struct {
	// Models is the number of loaded tenants.
	Models int `json:"models"`
	// Loads / Swaps / Unloads count lifecycle operations (a Load of an
	// already-served name counts as a swap); Sheds counts priority-shed
	// admissions.
	Loads   uint64 `json:"loads"`
	Swaps   uint64 `json:"swaps"`
	Unloads uint64 `json:"unloads"`
	Sheds   uint64 `json:"sheds"`
	// Aggregate sums the per-model serving counters (Occupancy and the
	// latency means are request-weighted only insofar as the underlying
	// sums are; configuration echoes are summed too and only meaningful
	// per model).
	Aggregate Stats `json:"aggregate"`
}

// Stats returns the registry's aggregate snapshot.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	models := make([]*modelEntry, 0, len(r.models))
	for _, e := range r.models {
		models = append(models, e)
	}
	r.mu.RUnlock()
	r.statsMu.Lock()
	st := RegistryStats{
		Models:  len(models),
		Loads:   r.loads,
		Swaps:   r.swaps,
		Unloads: r.unloads,
		Sheds:   r.sheds,
	}
	r.statsMu.Unlock()
	var waits, execs time.Duration
	for _, e := range models {
		s := e.srv.Stats()
		a := &st.Aggregate
		a.Requests += s.Requests
		a.Rows += s.Rows
		a.Batches += s.Batches
		a.Rejected += s.Rejected
		a.Expired += s.Expired
		a.Failed += s.Failed
		a.Crashes += s.Crashes
		a.Respawns += s.Respawns
		a.ScaleUps += s.ScaleUps
		a.ScaleDowns += s.ScaleDowns
		a.LiveReplicas += s.LiveReplicas
		a.Replicas += s.Replicas
		a.MaxReplicas += s.MaxReplicas
		a.QueueDepth += s.QueueDepth
		a.QueueCap += s.QueueCap
		waits += s.AvgQueueWait * time.Duration(s.Batches)
		execs += s.AvgExec * time.Duration(s.Batches)
	}
	if st.Aggregate.Batches > 0 {
		st.Aggregate.Occupancy = float64(st.Aggregate.Rows) / float64(st.Aggregate.Batches)
		st.Aggregate.AvgQueueWait = waits / time.Duration(st.Aggregate.Batches)
		st.Aggregate.AvgExec = execs / time.Duration(st.Aggregate.Batches)
	}
	return st
}

// Close unloads every model, closes their servers bounded by ctx, and
// waits for background drains. Subsequent Loads fail with ErrClosed;
// subsequent Infers see ErrUnknownModel.
func (r *Registry) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	r.closed = true
	entries := make([]*modelEntry, 0, len(r.models))
	for name, e := range r.models {
		entries = append(entries, e)
		delete(r.models, name)
	}
	r.mu.Unlock()

	var firstErr error
	var closeWg sync.WaitGroup
	var errMu sync.Mutex
	for _, e := range entries {
		closeWg.Add(1)
		go func(srv *Server) {
			defer closeWg.Done()
			if err := srv.Close(ctx); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(e.srv)
	}
	closeWg.Wait()

	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if firstErr == nil {
			firstErr = ctx.Err()
		}
	}
	return firstErr
}
