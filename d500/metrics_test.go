package d500

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deep500/internal/models"
	"deep500/internal/obs"
	"deep500/internal/tensor"
)

// TestMetricsCoversCanonicalNames: once a Metrics observes a registry, every
// metric in the canonical obs.CoreNames() list must be registered — the
// same invariant tools/docscheck enforces between names and
// docs/operations.md, closed from the code side. (The d500_dist_* names in
// obs.DistNames() are registered by the internal/jobs control plane and
// covered by its own conformance test.)
func TestMetricsCoversCanonicalNames(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	metrics := NewMetrics()
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close(context.Background())
	if err := reg.Load("mlp", ModelSpec{Model: m, Options: []ServerOption{
		WithMaxBatch(2),
		WithReplicas(1),
		WithSession(WithHook(metrics.Hook())),
	}}); err != nil {
		t.Fatal(err)
	}
	metrics.ObserveRegistry(reg)

	// Serve one request so the event-driven histograms have samples.
	rng := tensor.NewRNG(3)
	if code := callRegistry(t, reg.Handler(nil), http.MethodPost, "/v1/models/mlp/infer", tensor.RandNormal(rng, 0, 1, 1, 1, 4, 4)); code != http.StatusOK {
		t.Fatalf("infer: status %d", code)
	}

	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range obs.CoreNames() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("canonical metric %s is not registered by NewMetrics+ObserveRegistry", name)
		}
	}
	for _, want := range []string{
		"d500_serve_queue_depth 0",
		"d500_serve_replicas_live 1",
		"d500_serve_batches_total 1",
		"d500_serve_batch_latency_seconds_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestMetricsTrainingHook: training events drive the train_* series, and
// checkpoint writes are counted.
func TestMetricsTrainingHook(t *testing.T) {
	metrics := NewMetrics()
	hook := metrics.Hook()
	hook(StepEnd{Step: 1, Loss: 2.5, Accuracy: 0.25})
	hook(StepEnd{Step: 2, Loss: 1.25, Accuracy: 0.5})
	hook(EpochEnd{Epoch: 1, TestAccuracy: 0.5})
	hook(CheckpointSaved{Step: 2, Epoch: 1, Path: "x.ckpt"})
	hook(ServeSample{Requests: 1, Rows: 1, QueueWait: time.Millisecond, Exec: 2 * time.Millisecond})

	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"d500_train_steps_total 2",
		"d500_train_loss 1.25",
		"d500_train_accuracy 0.5",
		"d500_train_epochs_total 1",
		"d500_checkpoint_writes_total 1",
		"d500_serve_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output:\n%s", want, body)
		}
	}
}

// TestMetricsMiddleware: request accounting and the JSON access log wrap
// an arbitrary handler.
func TestMetricsMiddleware(t *testing.T) {
	metrics := NewMetrics()
	var log bytes.Buffer
	h := metrics.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), &log)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/teapot", nil))

	rec = httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `d500_serve_requests_total{code="418"} 1`) {
		t.Fatalf("request not accounted:\n%s", rec.Body.String())
	}
	if !strings.Contains(log.String(), `"path":"/teapot"`) || !strings.Contains(log.String(), `"status":418`) {
		t.Fatalf("access log wrong: %s", log.String())
	}
}
