package d500

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// serveModel builds the tiny headless MLP the serving tests use.
func serveModel() *graph.Model {
	return models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
}

func serveInput(rows int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	return tensor.RandNormal(rng, 0, 1, rows, 1, 4, 4)
}

// TestServerOptionValidation mirrors the Session's fail-fast option
// policy.
func TestServerOptionValidation(t *testing.T) {
	m := serveModel()
	for name, opts := range map[string][]ServerOption{
		"batch":    {WithMaxBatch(0)},
		"linger":   {WithMaxLinger(-time.Second)},
		"replicas": {WithReplicas(0)},
		"queue":    {WithQueueDepth(0)},
		"session":  {WithSession(WithFramework("bogus"))},
	} {
		if _, err := NewServer(m, opts...); err == nil {
			t.Errorf("%s: invalid option accepted", name)
		}
	}
	if _, err := NewServer(nil); err == nil {
		t.Error("nil model accepted")
	}
}

// TestServerServesAndObserves drives concurrent requests through a fully
// configured server (replicas, hook) and checks results against a plain
// Session plus the ServeSample stream.
func TestServerServesAndObserves(t *testing.T) {
	m := serveModel()

	// Reference outputs through a plain session.
	sess, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(m); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var samples []ServeSample
	srv, err := NewServer(m,
		WithMaxBatch(4),
		WithMaxLinger(50*time.Millisecond),
		WithReplicas(2),
		WithQueueDepth(64),
		WithSession(WithHook(func(e Event) {
			if s, ok := e.(ServeSample); ok {
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}

	const requests = 8
	inputs := make([]*tensor.Tensor, requests)
	var wg sync.WaitGroup
	got := make([]map[string]*tensor.Tensor, requests)
	errs := make([]error, requests)
	for i := 0; i < requests; i++ {
		inputs[i] = serveInput(1, uint64(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.Infer(context.Background(),
				map[string]*tensor.Tensor{"x": inputs[i]})
		}(i)
	}
	wg.Wait()
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := sess.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputs[i]})
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			g := got[i][name]
			if g == nil || !tensor.SameShape(w, g) {
				t.Fatalf("request %d output %q missing or misshapen", i, name)
			}
			for j, v := range w.Data() {
				d := float64(g.Data()[j] - v)
				if d < 0 {
					d = -d
				}
				if d > 1e-5 {
					t.Fatalf("request %d output %q diverges: %g vs %g", i, name, g.Data()[j], v)
				}
			}
		}
	}

	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(samples) == 0 {
		t.Fatal("no ServeSample events reached the hook")
	}
	var rows int
	for _, s := range samples {
		rows += s.Rows
	}
	if rows != requests {
		t.Fatalf("ServeSample events account for %d rows, want %d", rows, requests)
	}
	st := srv.inner.Stats()
	if st.Requests != requests || st.Batches != uint64(len(samples)) {
		t.Fatalf("stats %+v disagree with %d observed samples", st, len(samples))
	}

	// Typed backpressure survives the public wrapping.
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": serveInput(1, 9)}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("want ErrServerClosed, got %v", err)
	}
	if d := DefaultServerConfig(); d.MaxBatch != 8 || d.Replicas != 1 || d.PoolWorkers < 1 {
		t.Fatalf("DefaultServerConfig = %+v", d)
	}
}

// TestServerReplicasHonourMemPlan: the replicas, built by the same function
// as Session.Open, plan their memory with no option set. With one replica
// and single-row batches, every pass after the first two (unplanned, then
// profiling) runs out of the plan, as its exec.forward span records.
func TestServerReplicasHonourMemPlan(t *testing.T) {
	tr, err := NewTracer(TraceConfig{SampleEvery: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(serveModel(), WithReplicas(1), WithMaxBatch(1),
		WithSession(WithTracer(tr)))
	if err != nil {
		t.Fatal(err)
	}
	const requests = 4
	for i := 0; i < requests; i++ {
		if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": serveInput(1, uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	passes, planned := 0, 0
	for _, td := range tr.t.Recorder().Traces() {
		for _, s := range td.Spans {
			if s.Name != "exec.forward" {
				continue
			}
			passes++
			for _, a := range s.Attrs {
				if a.Key == "plan" && a.Value == true {
					planned++
				}
			}
		}
	}
	if passes != requests || planned != requests-2 {
		t.Fatalf("%d of %d forward passes ran out of the memory plan, want %d", planned, passes, requests-2)
	}
}
