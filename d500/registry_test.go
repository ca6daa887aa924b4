package d500

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deep500/internal/models"
	"deep500/internal/obs"
	"deep500/internal/tensor"
)

// callRegistry sends one request to the registry's HTTP front end and
// returns the status code. A non-nil x is sent as the infer body's feed "x".
func callRegistry(t *testing.T, h http.Handler, method, path string, x *tensor.Tensor) int {
	t.Helper()
	var body []byte
	if x != nil {
		var err error
		body, err = json.Marshal(map[string]any{"feeds": map[string]any{
			"x": map[string]any{"shape": x.Shape(), "data": x.Data()},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code
}

// TestRegistryLifecycleAndMetrics drives the public multi-tenant surface
// end to end: load two models, route over HTTP, hot-swap one, observe
// everything through ObserveRegistry (aggregate series, lifecycle
// counters, and per-tenant labeled series tracking load/unload), then
// unload.
func TestRegistryLifecycleAndMetrics(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())

	mlp := serveModel()
	lenet := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3})
	if err := reg.Load("mlp", ModelSpec{Version: "v1", Priority: 2, Model: mlp,
		Options: []ServerOption{WithMaxBatch(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("lenet", ModelSpec{Version: "v1", Model: lenet}); err != nil {
		t.Fatal(err)
	}

	metrics := NewMetrics()
	metrics.ObserveRegistry(reg)

	// Route to both tenants; an unknown name is a 404.
	h := reg.Handler(nil)
	if code := callRegistry(t, h, http.MethodPost, "/v1/models/mlp/infer", serveInput(1, 1)); code != http.StatusOK {
		t.Fatalf("infer mlp: status %d", code)
	}
	rng := tensor.NewRNG(2)
	if code := callRegistry(t, h, http.MethodPost, "/v1/models/lenet/infer", tensor.RandNormal(rng, 0, 1, 1, 1, 28, 28)); code != http.StatusOK {
		t.Fatalf("infer lenet: status %d", code)
	}
	if code := callRegistry(t, h, http.MethodPost, "/v1/models/ghost/infer", serveInput(1, 1)); code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", code)
	}

	// Hot swap mlp to v2; the registry must report the swap and keep both
	// tenants serving.
	if err := reg.Load("mlp", ModelSpec{Version: "v2", Priority: 2, Model: mlp}); err != nil {
		t.Fatal(err)
	}
	if code := callRegistry(t, h, http.MethodPost, "/v1/models/mlp/infer", serveInput(1, 4)); code != http.StatusOK {
		t.Fatalf("infer mlp v2: status %d", code)
	}
	st := reg.Stats()
	if st.Models != 2 || st.Loads != 2 || st.Swaps != 1 {
		t.Fatalf("registry stats: %+v", st)
	}
	ms := reg.Models()
	if len(ms) != 2 || ms[0].Name != "lenet" || ms[1].Name != "mlp" || ms[1].Version != "v2" {
		t.Fatalf("models listing: %+v", ms)
	}

	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, name := range obs.CoreNames() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("canonical metric %s is not registered by ObserveRegistry", name)
		}
	}
	for _, want := range []string{
		"d500_serve_models 2",
		"d500_serve_model_loads_total 2",
		"d500_serve_model_swaps_total 1",
		"d500_serve_replicas_live 2",
		`d500_serve_model_replicas_live{model="lenet"} 1`,
		`d500_serve_model_replicas_live{model="mlp"} 1`,
		`d500_serve_model_requests_total{model="lenet"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}

	// Unloading drops the tenant's labeled series and bumps the counter.
	if code := callRegistry(t, h, http.MethodDelete, "/v1/models/lenet", nil); code != http.StatusOK {
		t.Fatalf("DELETE lenet: status %d", code)
	}
	rec = httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body = rec.Body.String()
	if strings.Contains(body, `model="lenet"`) {
		t.Error("unloaded tenant still has labeled series")
	}
	if !strings.Contains(body, "d500_serve_model_unloads_total 1") ||
		!strings.Contains(body, "d500_serve_models 1") {
		t.Errorf("unload not reflected:\n%s", body)
	}
}

// TestRegistryOptionValidation mirrors the fail-fast option policy: a
// model spec without a graph is a bad request, not a deferred failure.
func TestRegistryOptionValidation(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	if err := reg.Load("x", ModelSpec{Version: "v1"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil model graph: %v", err)
	}
}

// TestAutoscaleOptionsAndEvent checks the autoscaler option surface and
// that pool resizes reach the session hook as ServeScale events.
func TestAutoscaleOptionsAndEvent(t *testing.T) {
	m := serveModel()
	for name, opts := range map[string][]ServerOption{
		"max-replicas": {WithMaxReplicas(0)},
		"below-floor":  {WithReplicas(3), WithMaxReplicas(2)},
		"interval":     {WithScaleInterval(0)},
		"occupancy":    {WithScaleUpOccupancy(2)},
		"idle":         {WithScaleDownIdle(-time.Second)},
	} {
		if _, err := NewServer(m, opts...); err == nil {
			t.Errorf("%s: invalid option accepted", name)
		}
	}

	events := make(chan ServeScale, 64)
	srv, err := NewServer(m,
		WithMaxBatch(1),
		WithReplicas(1),
		WithMaxReplicas(2),
		WithQueueDepth(4),
		WithScaleInterval(2*time.Millisecond),
		WithScaleUpOccupancy(0.25),
		WithScaleDownIdle(20*time.Millisecond),
		WithSession(WithHook(func(e Event) {
			if ev, ok := e.(ServeScale); ok {
				select {
				case events <- ev:
				default:
				}
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	// Keep the queue backlogged with continuous producers (a burst that
	// waits for its own completions can drain between scaler samples on a
	// loaded single-CPU machine) until the scaler reacts.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": serveInput(1, seed)})
			}
		}(uint64(i))
	}
	defer wg.Wait()
	defer close(stop)

	select {
	case ev := <-events:
		if !ev.Up || ev.Replicas < 2 {
			t.Fatalf("first scale event should grow the pool: %+v", ev)
		}
		if st := srv.inner.Stats(); st.ScaleUps == 0 {
			t.Fatalf("event without counter: %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no ServeScale event under sustained backlog")
	}
}
