package d500

import (
	"context"
	"fmt"
	"net/http"

	"deep500/internal/graph"
	"deep500/internal/serve"
)

// Multi-tenant serving errors, re-exported like the single-server set.
var (
	// ErrUnknownModel is returned for requests naming a model the registry
	// does not serve (HTTP 404).
	ErrUnknownModel = serve.ErrUnknownModel
	// ErrShed marks a low-priority admission rejected because a
	// higher-priority tenant's queue is under pressure; it wraps
	// ErrOverloaded, so generic backpressure handling keeps working.
	ErrShed = serve.ErrShed
)

// ModelSpec describes one loadable model version for a Registry: the
// model graph plus the same ServerOption vocabulary NewServer takes.
type ModelSpec struct {
	// Version identifies the build for display and swap bookkeeping.
	Version string
	// Priority orders tenants for admission shedding (higher wins; equal
	// priorities never shed each other).
	Priority int
	// Model is the graph to serve; required.
	Model *graph.Model
	// Options configure the version's serving pool exactly like NewServer.
	Options []ServerOption
}

// ModelStatus is one tenant's reportable state (see Registry.Models).
type ModelStatus = serve.ModelStatus

// RegistryStats is the aggregate snapshot returned by Registry.Stats.
type RegistryStats = serve.RegistryStats

// LoadRequest is the HTTP model-load body (PUT /v1/models/{name}):
// version, priority, and either a zoo model name or a checkpoint path for
// the loader to resolve.
type LoadRequest = serve.LoadRequest

// LoadFunc resolves an HTTP load request into a ModelSpec — the policy
// hook that decides what "zoo" and "checkpoint" mean for this process
// (cmd/d500serve wires the built-in model zoo here).
type LoadFunc func(name string, req LoadRequest) (ModelSpec, error)

// Registry is the multi-tenant serving front end: a name → Server table
// with hot load/unload over HTTP, atomic version swaps (in-flight
// requests drain on the version that admitted them while new admissions
// route to the replacement), queue-driven per-model autoscaling (via each
// spec's WithMaxReplicas), and priority-based admission shedding. All
// methods are safe for concurrent use.
type Registry struct {
	inner *serve.Registry
}

// NewRegistry builds an empty model registry. Replaced and unloaded
// versions drain for at most 30s, and a tenant's queue counts as under
// pressure for priority shedding at half occupancy (see DefaultServerConfig).
// The error is always nil; the signature leaves room for validated options.
func NewRegistry() (*Registry, error) {
	return &Registry{inner: serve.NewRegistry()}, nil
}

// convert wraps a d500 ModelSpec into the internal one.
func (r *Registry) convert(name string, spec ModelSpec) (serve.ModelSpec, error) {
	if spec.Model == nil {
		return serve.ModelSpec{}, fmt.Errorf("%w: model spec for %q has no graph", ErrBadRequest, name)
	}
	return serve.ModelSpec{
		Version:  spec.Version,
		Priority: spec.Priority,
		Build: func() (*serve.Server, error) {
			srv, err := NewServer(spec.Model, spec.Options...)
			if err != nil {
				return nil, err
			}
			return srv.inner, nil
		},
	}, nil
}

// Load installs (or hot-swaps) the named model. A failing build leaves
// the previous version serving untouched; a successful one atomically
// replaces it — the old version drains in the background.
func (r *Registry) Load(name string, spec ModelSpec) error {
	ispec, err := r.convert(name, spec)
	if err != nil {
		return err
	}
	return r.inner.Load(name, ispec)
}

// Models lists the loaded tenants, sorted by name.
func (r *Registry) Models() []ModelStatus { return r.inner.Models() }

// Stats returns lifecycle counters plus the sum of every tenant's
// serving counters.
func (r *Registry) Stats() RegistryStats { return r.inner.Stats() }

// Handler returns the registry's HTTP front end: inference (POST
// /v1/infer?model=..., POST /v1/models/{name}/infer), the model lifecycle
// (PUT/DELETE/GET /v1/models/{name}, GET /v1/models), GET /stats and
// GET /healthz. load resolves PUT bodies into specs; nil disables hot
// loading (PUT answers 501).
func (r *Registry) Handler(load LoadFunc) http.Handler {
	var inner serve.LoadFunc
	if load != nil {
		inner = func(name string, req LoadRequest) (serve.ModelSpec, error) {
			spec, err := load(name, req)
			if err != nil {
				return serve.ModelSpec{}, err
			}
			return r.convert(name, spec)
		}
	}
	return r.inner.Handler(inner)
}

// Close unloads every model and waits for their servers to drain,
// bounded by ctx.
func (r *Registry) Close(ctx context.Context) error { return r.inner.Close(ctx) }
