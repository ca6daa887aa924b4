package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// gatedFactory builds replicas whose first-built executor wedges inside
// its first forward pass: it signals entered, then blocks until gate is
// closed. Executors built afterwards (respawns, scale-ups) run normally,
// so a test can deterministically saturate a one-replica pool and watch
// the autoscaler add capacity.
func gatedFactory(m *graph.Model, entered chan struct{}, gate chan struct{}) func() (executor.GraphExecutor, error) {
	var first sync.Once
	return func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		wedge := false
		first.Do(func() { wedge = true })
		if wedge {
			var once sync.Once
			e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
				once.Do(func() {
					entered <- struct{}{}
					<-gate
				})
			}}
		}
		return e, nil
	}
}

// TestAutoscaleUpAndDown is the autoscaler's lifecycle test: a wedged
// single-replica pool with a backlogged queue must scale up (and the new
// replica must actually serve the backlog), then, once idle, retire the
// surplus back down to the floor — draining, never dropping a request.
func TestAutoscaleUpAndDown(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})

	var scaleMu sync.Mutex
	var ups, downs int
	maxPool := 0
	srv, err := New(Options{
		MaxBatch:         1, // no coalescing: the backlog stays visible to the scaler
		Replicas:         1,
		MaxReplicas:      3,
		QueueDepth:       8,
		ScaleInterval:    2 * time.Millisecond,
		ScaleUpOccupancy: 0.5,
		ScaleDownIdle:    20 * time.Millisecond,
		NewExecutor:      gatedFactory(m, entered, gate),
		OnScale: func(replicas int, up bool) {
			scaleMu.Lock()
			if up {
				ups++
			} else {
				downs++
			}
			if replicas > maxPool {
				maxPool = replicas
			}
			scaleMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	// Wedge the only replica, then backlog the queue past the high-water
	// mark (4 of 8 slots).
	const queued = 5
	var wg sync.WaitGroup
	errs := make([]error, queued+1)
	infer := func(i int) {
		defer wg.Done()
		_, errs[i] = srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, uint64(i))})
	}
	wg.Add(1)
	go infer(0)
	<-entered // replica 0 is now stuck inside request 0's pass
	for i := 1; i <= queued; i++ {
		wg.Add(1)
		go infer(i)
	}

	// The scaler must add capacity and the new replica must drain the
	// backlog even though replica 0 is still wedged.
	drained := make(chan struct{})
	go func() {
		for {
			if st := srv.Stats(); st.Requests >= queued {
				close(drained)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("backlog not drained by scaled-up replicas: %+v", srv.Stats())
	}
	close(gate) // release request 0
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.ScaleUps < 1 {
		t.Fatalf("no scale-up recorded: %+v", st)
	}
	// Read under the lock, fail outside it: the deferred Close waits for a
	// scaler that may be inside OnScale.
	scaleMu.Lock()
	sawUps, sawPool := ups, maxPool
	scaleMu.Unlock()
	if sawUps < 1 || sawPool < 2 {
		t.Fatalf("OnScale saw ups=%d maxPool=%d, want ups>=1 and maxPool>=2", sawUps, sawPool)
	}

	// Idle now: the pool must shrink back to the floor, one replica per
	// ScaleDownIdle window, without dropping below it.
	deadline := time.After(10 * time.Second)
	for {
		st := srv.Stats()
		if st.LiveReplicas == 1 && st.ScaleDowns >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("pool did not shrink to floor: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// And a request after the shrink still serves.
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, 99)}); err != nil {
		t.Fatalf("post-shrink request: %v", err)
	}
}

// TestAutoscaleDisabledKeepsFixedPool pins the default: MaxReplicas unset
// (or ≤ Replicas) resolves to the replica floor and never starts the
// scaler, whatever the queue does.
func TestAutoscaleDisabledKeepsFixedPool(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	srv, err := New(Options{
		Replicas:    2,
		NewExecutor: func() (executor.GraphExecutor, error) { return executor.New(m) },
		OnScale:     func(int, bool) { t.Error("OnScale fired with autoscaling disabled") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	st := srv.Stats()
	if st.MaxReplicas != 2 || st.LiveReplicas != 2 {
		t.Fatalf("fixed pool resolved to %+v, want max=live=2", st)
	}
	for i := 0; i < 16; i++ {
		if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.ScaleUps != 0 || st.ScaleDowns != 0 || st.LiveReplicas != 2 {
		t.Fatalf("fixed pool scaled: %+v", st)
	}
}
