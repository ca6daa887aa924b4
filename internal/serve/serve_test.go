package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// zooModels builds every architecture in internal/models at CPU-test
// scale, headless ("x" → logits) — the serving-side configuration.
func zooModels() map[string]*graph.Model {
	mlpCfg := models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}
	convCfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 7, WidthScale: 0.25}
	lenetCfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 7}
	alexCfg := models.Config{Classes: 10, Channels: 3, Height: 64, Width: 64, Seed: 7, WidthScale: 0.0625}
	return map[string]*graph.Model{
		"mlp":     models.MLP(mlpCfg, 32, 16),
		"lenet":   models.LeNet(lenetCfg),
		"alexnet": models.AlexNet(alexCfg),
		"resnet8": models.ResNet(8, convCfg),
		"wrn16":   models.WideResNet(16, 1, convCfg),
	}
}

func inputFor(m *graph.Model, rows int, seed uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	shape := append([]int{rows}, m.Inputs[0].Shape[1:]...)
	return tensor.RandNormal(rng, 0, 1, shape...)
}

func maxAbsDiff(t *testing.T, a, b *tensor.Tensor) float64 {
	t.Helper()
	if !tensor.SameShape(a, b) {
		t.Fatalf("shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	var m float64
	for i, v := range a.Data() {
		d := float64(v - b.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// execFactory builds a replica factory over one shared model.
func execFactory(m *graph.Model) func() (executor.GraphExecutor, error) {
	return func() (executor.GraphExecutor, error) { return executor.New(m) }
}

// warmFactory is execFactory with every replica's memory plans already
// cached for batches of 1 to maxRows rows, so every served batch runs out
// of a plan instead of profiling one.
func warmFactory(m *graph.Model, maxRows int) func() (executor.GraphExecutor, error) {
	return func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		for rows := 1; rows <= maxRows; rows++ {
			feeds := map[string]*tensor.Tensor{"x": inputFor(m, rows, 1)}
			for pass := 0; pass < 2; pass++ { // the second pass plans
				if _, err := e.Inference(context.Background(), feeds); err != nil {
					return nil, err
				}
			}
		}
		return e, nil
	}
}

// TestBatchedConformance is the serving acceptance gate: outputs of
// micro-batched execution must be tolerance-equal to per-item Infer on
// every zoo model, from fresh replicas and from replicas whose plans for
// every batch shape are already cached,
// under -race. The replicas' Stats are read right after the
// replies: a request is counted before it is answered.
func TestBatchedConformance(t *testing.T) {
	const tol = 1e-5
	for name, m := range zooModels() {
		t.Run(name, func(t *testing.T) {
			const requests = 6
			// Per-item reference: one plain sequential executor.
			ref := executor.MustNew(m)
			items := make([]*tensor.Tensor, requests)
			want := make([]map[string]*tensor.Tensor, requests)
			for i := range items {
				items[i] = inputFor(m, 1, uint64(100+i))
				out, err := ref.Inference(context.Background(), map[string]*tensor.Tensor{"x": items[i]})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}

			variants := map[string]func() (executor.GraphExecutor, error){
				"sequential":      execFactory(m),
				"sequential+plan": warmFactory(m, requests),
			}
			for vname, factory := range variants {
				t.Run(vname, func(t *testing.T) {
					srv, err := New(Options{
						MaxBatch:    requests,
						MaxLinger:   200 * time.Millisecond,
						Replicas:    2,
						NewExecutor: factory,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close(context.Background())

					// Fire all requests concurrently so the batcher actually
					// coalesces them.
					got := make([]map[string]*tensor.Tensor, requests)
					errs := make([]error, requests)
					var wg sync.WaitGroup
					for i := 0; i < requests; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							got[i], errs[i] = srv.Infer(context.Background(),
								map[string]*tensor.Tensor{"x": items[i]})
						}(i)
					}
					wg.Wait()
					for i := 0; i < requests; i++ {
						if errs[i] != nil {
							t.Fatalf("request %d: %v", i, errs[i])
						}
						for oname, w := range want[i] {
							g, ok := got[i][oname]
							if !ok {
								t.Fatalf("request %d: missing output %q", i, oname)
							}
							if d := maxAbsDiff(t, w, g); d > tol {
								t.Fatalf("request %d output %q diverges: max |Δ| = %g", i, oname, d)
							}
						}
					}
					st := srv.Stats()
					if st.Requests != requests {
						t.Fatalf("stats: served %d requests, want %d", st.Requests, requests)
					}
					if st.Batches > requests {
						t.Fatalf("stats: %d batches for %d requests — no coalescing bound", st.Batches, requests)
					}
				})
			}
		})
	}
}

// TestMultiRowRequestsAndBatchScopedOutputs drives a WithHead model (which
// also declares the batch-mean "loss" and "acc" outputs) with multi-row
// requests: row-aligned outputs split back per request, batch-scoped
// outputs are returned to every request of the batch.
func TestMultiRowRequestsAndBatchScopedOutputs(t *testing.T) {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 7}
	m := models.MLP(cfg, 32, 16)
	srv, err := New(Options{
		MaxBatch:    8,
		MaxLinger:   200 * time.Millisecond,
		NewExecutor: execFactory(m),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	feedsOf := func(rows int, seed uint64) map[string]*tensor.Tensor {
		labels := tensor.New(rows)
		for i := 0; i < rows; i++ {
			labels.Data()[i] = float32(i % 4)
		}
		return map[string]*tensor.Tensor{"x": inputFor(m, rows, seed), "labels": labels}
	}

	rowCounts := []int{3, 2, 3} // coalesces into one batch of 8 rows
	outs := make([]map[string]*tensor.Tensor, len(rowCounts))
	errs := make([]error, len(rowCounts))
	var wg sync.WaitGroup
	for i, rows := range rowCounts {
		wg.Add(1)
		go func(i, rows int) {
			defer wg.Done()
			outs[i], errs[i] = srv.Infer(context.Background(), feedsOf(rows, uint64(i)))
		}(i, rows)
	}
	wg.Wait()
	for i, rows := range rowCounts {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		// The logits tensor name depends on builder internals: find the
		// rank-2 declared output.
		var logits *tensor.Tensor
		for _, o := range outs[i] {
			if o.Rank() == 2 {
				logits = o
			}
		}
		if logits == nil || logits.Dim(0) != rows {
			t.Fatalf("request %d: row-aligned output not split to %d rows (%v)", i, rows, outs[i])
		}
		loss, ok := outs[i]["loss"]
		if !ok || loss.Rank() != 0 {
			t.Fatalf("request %d: batch-scoped loss missing or wrong rank", i)
		}
	}
}

// TestAdmissionControl covers the typed backpressure taxonomy: queue-full
// rejections, post-Close rejections, and feed validation.
func TestAdmissionControl(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)

	// The replica signals entry and then blocks on gate, so the test can
	// deterministically wedge it inside a pass and back the queue up.
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	slow := func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			once.Do(func() {
				entered <- struct{}{}
				<-gate
			})
		}}
		return e, nil
	}
	srv, err := New(Options{MaxBatch: 1, Replicas: 1, QueueDepth: 1, NewExecutor: slow})
	if err != nil {
		t.Fatal(err)
	}

	feeds := func() map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)}
	}
	// First request occupies the replica (blocked on gate)…
	first := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), feeds())
		first <- err
	}()
	<-entered
	// …then a second request fills the depth-1 queue.
	second := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), feeds())
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue now full: admission must reject immediately with ErrQueueFull.
	if _, err := srv.Infer(context.Background(), feeds()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("stats.Rejected = %d, want 1", st.Rejected)
	}

	// Bad requests are rejected before admission.
	for _, bad := range []map[string]*tensor.Tensor{
		{},
		{"y": inputFor(m, 1, 1)},
		{"x": tensor.New(1, 3, 3)},
		{"x": tensor.Scalar(1)},
	} {
		if _, err := srv.Infer(context.Background(), bad); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("feeds %v: want ErrBadRequest, got %v", bad, err)
		}
	}

	// Release the replica; graceful Close drains the queue.
	close(gate)
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("queued request not drained on Close: %v", err)
	}
	// Post-Close admission is a typed rejection, and Close is idempotent.
	if _, err := srv.Infer(context.Background(), feeds()); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedRequestExpiry proves per-request context deadlines are
// honored while queued: the caller gets ctx.Err() immediately, and the
// batcher later discards the expired slot (stats.Expired) instead of
// spending a pass on it.
func TestQueuedRequestExpiry(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	slow := func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			once.Do(func() {
				entered <- struct{}{}
				<-gate
			})
		}}
		return e, nil
	}
	srv, err := New(Options{MaxBatch: 1, Replicas: 1, QueueDepth: 4, NewExecutor: slow})
	if err != nil {
		t.Fatal(err)
	}
	feeds := func() map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)}
	}
	first := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), feeds())
		first <- err
	}()
	<-entered

	// This request expires while queued behind the wedged replica.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := srv.Infer(ctx, feeds()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}

	close(gate)
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Expired != 1 {
		t.Fatalf("stats.Expired = %d, want 1", st.Expired)
	}
	if st.Requests != 1 {
		t.Fatalf("stats.Requests = %d, want 1 (expired slot must not be served)", st.Requests)
	}
}

// TestZeroLingerDrainsQueue proves the documented MaxLinger=0 semantics:
// "flush with whatever is already queued" must coalesce the entire
// backlog, not just the first request. (A zero-duration timer in the
// collect select used to race the queue receive and stop after ~one
// extra request.)
func TestZeroLingerDrainsQueue(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	slow := func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			once.Do(func() {
				entered <- struct{}{}
				<-gate
			})
		}}
		return e, nil
	}
	srv, err := New(Options{MaxBatch: 8, MaxLinger: 0, Replicas: 1, QueueDepth: 16, NewExecutor: slow})
	if err != nil {
		t.Fatal(err)
	}
	feeds := func() map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)}
	}
	// First request wedges the lone replica…
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Infer(context.Background(), feeds()); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	// …while 8 more stack up in the queue.
	const backlog = 8
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Infer(context.Background(), feeds()); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth != backlog {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never queued (depth %d)", srv.Stats().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wedged request alone + the whole backlog as ONE full batch.
	st := srv.Stats()
	if st.Requests != backlog+1 || st.Batches != 2 {
		t.Fatalf("stats = %+v, want %d requests in exactly 2 batches", st, backlog+1)
	}
}

// TestLingerFlush proves a lone request is not held for the full batch: it
// must be answered after ~MaxLinger even though MaxBatch is never reached.
func TestLingerFlush(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	srv, err := New(Options{MaxBatch: 64, MaxLinger: 20 * time.Millisecond, NewExecutor: execFactory(m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	start := time.Now()
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if wait := time.Since(start); wait > 5*time.Second {
		t.Fatalf("lone request waited %v — linger flush broken", wait)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v, want 1 request in 1 batch", st)
	}
}

// TestReplicasShareWeights asserts the replica pool serves one set of
// parameters: mutating the shared model's weights changes every replica's
// outputs.
func TestReplicasShareWeights(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	srv, err := New(Options{MaxBatch: 1, Replicas: 3, NewExecutor: execFactory(m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	x := inputFor(m, 1, 3)
	before, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	// Zero every parameter in place (the optimizer's update path).
	for _, p := range m.Initializers {
		p.Zero()
	}
	var changed bool
	for i := 0; i < 6; i++ { // hit all replicas a few times
		after, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range before {
			if maxAbsDiff(t, b, after[name]) > 0 {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("weight mutation invisible to replicas — weights are not shared")
	}
}

// TestForcedClose covers the deadline path of Close: a wedged replica is
// cancelled and Close returns the context error.
func TestForcedClose(t *testing.T) {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	wedged := func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			once.Do(func() {
				entered <- struct{}{}
				<-block
			})
		}}
		return e, nil
	}
	srv, err := New(Options{MaxBatch: 1, Replicas: 1, NewExecutor: wedged})
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)})
		res <- err
	}()
	<-entered // the request is wedged inside the replica
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close: want DeadlineExceeded, got %v", err)
	}
	// Unblock the operator: the pass must now observe the cancellation and
	// the wedged request must fail, not succeed.
	close(block)
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("wedged request reported success after forced close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged request never answered after forced close")
	}
}

// TestNewValidation covers constructor failure modes.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("want error without NewExecutor")
	}
	boom := func() (executor.GraphExecutor, error) { return nil, fmt.Errorf("boom") }
	if _, err := New(Options{NewExecutor: boom}); err == nil {
		t.Fatal("want error from failing replica factory")
	}
}
