package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// Chaos tests: panics injected into replica passes mid-load. The server
// must stay healthy (requests in flight on the crashed replica fail with
// ErrReplicaCrash, everything else keeps being served), capacity must
// degrade observably, and the request accounting must reconcile exactly.
// The -race CI job runs these, so the crash/respawn paths are also checked
// for data races.

// chaosModel is small enough that thousands of requests stay cheap.
func chaosModel() *graph.Model {
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	return models.MLP(cfg, 8)
}

// crashyFactory builds replicas that panic inside the forward pass while
// armed holds a positive count; each injected panic decrements it.
func crashyFactory(m *graph.Model, armed *atomic.Int32) func() (executor.GraphExecutor, error) {
	return func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			if armed.Add(-1) >= 0 {
				panic("chaos: injected operator fault")
			}
			armed.Add(1) // keep the counter from drifting far negative
		}}
		return e, nil
	}
}

// TestChaosCrashDegrades: one of two replicas is killed mid-load without
// respawn. The pool must keep serving at degraded capacity, the crash must
// surface as ErrReplicaCrash on the interrupted requests, and
// accepted = served + failed must hold exactly.
func TestChaosCrashDegrades(t *testing.T) {
	m := chaosModel()
	var armed atomic.Int32
	armed.Store(-1) // disarmed
	var downs int32
	srv, err := New(Options{
		MaxBatch:    4,
		Replicas:    2,
		QueueDepth:  1024,
		NewExecutor: crashyFactory(m, &armed),
		OnReplicaDown: func(replica int, cause error, respawned bool) {
			atomic.AddInt32(&downs, 1)
			if !errors.Is(cause, ErrReplicaCrash) {
				t.Errorf("OnReplicaDown cause = %v, want ErrReplicaCrash", cause)
			}
			if respawned {
				t.Error("OnReplicaDown reported a respawn without Respawn enabled")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	const total = 400
	var served, crashed, otherErr atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		if i == total/2 {
			armed.Store(1) // kill exactly one replica mid-load
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := inputFor(m, 1, uint64(i))
			_, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": x})
			switch {
			case err == nil:
				served.Add(1)
			case errors.Is(err, ErrReplicaCrash):
				crashed.Add(1)
			default:
				otherErr.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if otherErr.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected errors", otherErr.Load())
	}
	if crashed.Load() == 0 {
		t.Fatal("the injected panic failed no request")
	}
	if served.Load() == 0 {
		t.Fatal("no request survived — the pool did not stay healthy")
	}
	if served.Load()+crashed.Load() != total {
		t.Fatalf("accounting: %d served + %d crashed != %d accepted",
			served.Load(), crashed.Load(), total)
	}

	st := srv.Stats()
	if st.Crashes != 1 {
		t.Fatalf("stats.Crashes = %d, want 1", st.Crashes)
	}
	if st.Respawns != 0 {
		t.Fatalf("stats.Respawns = %d, want 0", st.Respawns)
	}
	if st.LiveReplicas != 1 {
		t.Fatalf("stats.LiveReplicas = %d, want 1 (degraded)", st.LiveReplicas)
	}
	if st.Requests != uint64(served.Load()) || st.Failed != uint64(crashed.Load()) {
		t.Fatalf("stats (%d served, %d failed) disagree with callers (%d, %d)",
			st.Requests, st.Failed, served.Load(), crashed.Load())
	}
	if atomic.LoadInt32(&downs) != 1 {
		t.Fatalf("OnReplicaDown fired %d times, want 1", downs)
	}

	// The degraded pool still answers fresh requests.
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, 9999)}); err != nil {
		t.Fatalf("degraded pool rejected a healthy request: %v", err)
	}
}

// TestChaosRespawn: with Respawn enabled a crashed replica is rebuilt from
// the shared weights and capacity recovers to the configured count.
func TestChaosRespawn(t *testing.T) {
	m := chaosModel()
	var armed atomic.Int32
	armed.Store(-1)
	downCh := make(chan bool, 8)
	srv, err := New(Options{
		MaxBatch:    2,
		Replicas:    2,
		QueueDepth:  1024,
		Respawn:     true,
		NewExecutor: crashyFactory(m, &armed),
		OnReplicaDown: func(replica int, cause error, respawned bool) {
			downCh <- respawned
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	x := inputFor(m, 1, 1)
	infer := func() error {
		_, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": x})
		return err
	}
	if err := infer(); err != nil {
		t.Fatal(err)
	}

	// Crash twice; each crash must be respawned.
	for round := 0; round < 2; round++ {
		armed.Store(1)
		deadline := time.Now().Add(5 * time.Second)
		for { // keep sending until one request trips the armed fault
			err := infer()
			if errors.Is(err, ErrReplicaCrash) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if time.Now().After(deadline) {
				t.Fatal("armed fault never fired")
			}
		}
		select {
		case respawned := <-downCh:
			if !respawned {
				t.Fatal("crash was not respawned")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("OnReplicaDown never fired")
		}
	}

	st := srv.Stats()
	if st.Crashes != 2 || st.Respawns != 2 {
		t.Fatalf("stats crashes/respawns = %d/%d, want 2/2", st.Crashes, st.Respawns)
	}
	if st.LiveReplicas != 2 {
		t.Fatalf("LiveReplicas = %d, want full capacity 2 after respawns", st.LiveReplicas)
	}
	if err := infer(); err != nil {
		t.Fatalf("respawned pool rejected a request: %v", err)
	}
}

// TestChaosAllReplicasDead: when the last replica dies without respawn,
// queued and future requests fail with ErrReplicaCrash instead of hanging,
// and Close still completes.
func TestChaosAllReplicasDead(t *testing.T) {
	m := chaosModel()
	var armed atomic.Int32
	armed.Store(-1)
	srv, err := New(Options{
		MaxBatch:    1,
		Replicas:    1,
		QueueDepth:  64,
		NewExecutor: crashyFactory(m, &armed),
	})
	if err != nil {
		t.Fatal(err)
	}

	x := inputFor(m, 1, 1)
	infer := func() error {
		_, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": x})
		return err
	}
	if err := infer(); err != nil {
		t.Fatal(err)
	}
	armed.Store(1)
	if err := infer(); !errors.Is(err, ErrReplicaCrash) {
		t.Fatalf("crashing request: got %v, want ErrReplicaCrash", err)
	}
	// Dead pool: requests must fail fast, not hang.
	for i := 0; i < 4; i++ {
		if err := infer(); !errors.Is(err, ErrReplicaCrash) {
			t.Fatalf("dead pool: got %v, want ErrReplicaCrash", err)
		}
	}
	if st := srv.Stats(); st.LiveReplicas != 0 {
		t.Fatalf("LiveReplicas = %d, want 0", st.LiveReplicas)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close of a dead pool: %v", err)
	}
}

// slowCrashyFactory is crashyFactory with a fixed per-op delay, so passes
// are slow enough that the autoscaler's occupancy sampling deterministically
// observes a backlogged queue (and injected panics land while scale
// decisions are in flight).
func slowCrashyFactory(m *graph.Model, armed *atomic.Int32, opDelay time.Duration) func() (executor.GraphExecutor, error) {
	return func() (executor.GraphExecutor, error) {
		e, err := executor.New(m)
		if err != nil {
			return nil, err
		}
		e.Events = &executor.Events{BeforeOp: func(*graph.Node) {
			if armed.Add(-1) >= 0 {
				panic("chaos: injected operator fault")
			}
			armed.Add(1)
			time.Sleep(opDelay)
		}}
		return e, nil
	}
}

// TestChaosCrashDuringScaleDownDrain runs crash injection against an
// actively autoscaling pool: bursts force scale-ups, idle windows force
// draining scale-downs, and a panic is armed exactly inside each
// scale-down window so crashes land while retirements are in flight. The
// accepted = served + failed identity must reconcile exactly, the
// autoscaler must both grow and shrink, and the pool must respect its
// floor and keep serving.
func TestChaosCrashDuringScaleDownDrain(t *testing.T) {
	m := chaosModel()
	var armed atomic.Int32
	armed.Store(-1)
	srv, err := New(Options{
		MaxBatch:         1,
		Replicas:         1,
		MaxReplicas:      3,
		QueueDepth:       8,
		ScaleInterval:    time.Millisecond,
		ScaleDownIdle:    5 * time.Millisecond,
		ScaleUpOccupancy: 0.5,
		Respawn:          true,
		NewExecutor:      slowCrashyFactory(m, &armed, 200*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	var served, crashed, rejected, other atomic.Int64
	var sent atomic.Int64
	infer := func(wg *sync.WaitGroup, seed uint64) {
		defer wg.Done()
		sent.Add(1)
		_, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, seed)})
		switch {
		case err == nil:
			served.Add(1)
		case errors.Is(err, ErrReplicaCrash):
			crashed.Add(1)
		case errors.Is(err, ErrQueueFull):
			rejected.Add(1)
		default:
			other.Add(1)
		}
	}

	const cycles = 5
	for c := 0; c < cycles; c++ {
		// Burst: backlog the queue so the scaler grows the pool.
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go infer(&wg, uint64(c*100+i))
		}
		wg.Wait()
		// Idle into the scale-down window, then crash whichever worker
		// picks up the next request while retirements are in flight.
		time.Sleep(7 * time.Millisecond)
		armed.Store(1)
		wg.Add(1)
		go infer(&wg, uint64(c))
		wg.Wait()
		armed.Store(-1)
		time.Sleep(3 * time.Millisecond) // let respawns/retirements settle
	}

	if other.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected errors", other.Load())
	}
	if served.Load()+crashed.Load()+rejected.Load() != sent.Load() {
		t.Fatalf("accounting: %d served + %d crashed + %d rejected != %d sent",
			served.Load(), crashed.Load(), rejected.Load(), sent.Load())
	}
	st := srv.Stats()
	if st.Requests != uint64(served.Load()) || st.Failed != uint64(crashed.Load()) || st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("stats (%d served, %d failed, %d rejected) disagree with callers (%d, %d, %d)",
			st.Requests, st.Failed, st.Rejected, served.Load(), crashed.Load(), rejected.Load())
	}
	if st.ScaleUps == 0 {
		t.Fatalf("autoscaler never scaled up under bursts: %+v", st)
	}
	if st.ScaleDowns == 0 {
		t.Fatalf("autoscaler never scaled down across idle windows: %+v", st)
	}
	if st.LiveReplicas < 1 || st.LiveReplicas > 3 {
		t.Fatalf("pool outside [floor, ceiling]: %+v", st)
	}
	// The pool must still answer after crashes landed mid-retirement.
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": inputFor(m, 1, 9999)}); err != nil {
		t.Fatalf("pool broken after chaos: %v", err)
	}
}

// TestChaosSwapNeverRoutesToDeadPool kills every replica of a model's v1
// pool under fire, then atomically swaps in a healthy v2 while clients
// keep hammering. Requests racing the swap must resolve to v1's crash
// error or v2's answer — never hang, never surface ErrClosed — and after
// the swap commits the registry must never route to the dead pool again.
func TestChaosSwapNeverRoutesToDeadPool(t *testing.T) {
	m := chaosModel()
	var armed atomic.Int32
	armed.Store(-1)
	r := NewRegistry()
	defer r.Close(context.Background())

	v1 := ModelSpec{Version: "v1", Build: func() (*Server, error) {
		return New(Options{MaxBatch: 1, Replicas: 2, QueueDepth: 32, NewExecutor: crashyFactory(m, &armed)})
	}}
	if err := r.Load("model", v1); err != nil {
		t.Fatal(err)
	}
	feeds := func(seed uint64) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"x": inputFor(m, 1, seed)}
	}
	if _, err := r.Infer(context.Background(), "model", feeds(1)); err != nil {
		t.Fatal(err)
	}

	// Hammer the model from four clients while v1's pool dies.
	var served, crashed, rejected, other atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := r.Infer(context.Background(), "model", feeds(uint64(g*1000+i)))
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrReplicaCrash):
					crashed.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				default:
					other.Add(1)
				}
			}
		}(g)
	}

	// Arm enough faults to kill both v1 replicas (no respawn) and wait for
	// the pool to be fully dead.
	armed.Store(1 << 20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv, ok := r.Get("model")
		if ok && srv.Stats().LiveReplicas == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("v1 pool never fully died")
		}
		time.Sleep(time.Millisecond)
	}

	// Swap in a healthy v2 while the hammers are still firing.
	armed.Store(-1)
	if err := r.Load("model", testSpec(m, "v2", 0, Options{Replicas: 2, QueueDepth: 1024})); err != nil {
		t.Fatal(err)
	}
	// After the swap commits, the registry must never route to the dead
	// pool: fresh sequential requests all succeed.
	for i := 0; i < 50; i++ {
		if _, err := r.Infer(context.Background(), "model", feeds(uint64(5000+i))); err != nil {
			t.Fatalf("post-swap request %d hit the dead pool: %v", i, err)
		}
	}
	// The hammers are served by v2 as well. On a busy scheduler they may
	// not have run since the swap, so wait for one of them rather than
	// stopping them at once.
	deadline = time.Now().Add(10 * time.Second)
	for served.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was served across the swap")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d requests resolved to errors outside the crash/backpressure taxonomy (ErrClosed must not escape a swap)", other.Load())
	}
	if crashed.Load() == 0 {
		t.Fatal("no request observed the dying v1 pool — the chaos phase did not bite")
	}
	st := r.Stats()
	if st.Swaps != 1 {
		t.Fatalf("registry swaps = %d, want 1", st.Swaps)
	}
	if got := r.Models(); len(got) != 1 || got[0].Version != "v2" {
		t.Fatalf("post-swap Models() = %+v, want single v2", got)
	}
}

// expiredCtx reports an expired deadline through Err but never fires Done,
// so Infer can only return through the server's answer on the expired path.
type expiredCtx struct{ context.Context }

func (expiredCtx) Err() error { return context.DeadlineExceeded }

// failingExec is a replica whose every pass returns an error.
type failingExec struct{ *executor.Executor }

var errInjectedPass = errors.New("injected pass failure")

func (failingExec) Inference(context.Context, map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return nil, errInjectedPass
}

// TestStatsCountedBeforeReply reads Stats the instant each answer arrives,
// on every path that answers a request: a client always finds itself
// counted, so served + failed + expired equals the answers given so far.
func TestStatsCountedBeforeReply(t *testing.T) {
	m := chaosModel()
	crashy := func(armed int32) func() (executor.GraphExecutor, error) {
		var a atomic.Int32
		a.Store(armed)
		return crashyFactory(m, &a)
	}
	for _, tc := range []struct {
		name    string
		newExec func() (executor.GraphExecutor, error)
		respawn bool
		ctx     context.Context
		wantErr error
		counter func(Stats) uint64
	}{
		{"served", execFactory(m), false, context.Background(), nil,
			func(st Stats) uint64 { return st.Requests }},
		{"failed", func() (executor.GraphExecutor, error) {
			e, err := executor.New(m)
			return failingExec{e}, err
		}, false, context.Background(), errInjectedPass,
			func(st Stats) uint64 { return st.Failed }},
		{"expired", execFactory(m), false, expiredCtx{context.Background()}, context.DeadlineExceeded,
			func(st Stats) uint64 { return st.Expired }},
		{"crashed", crashy(1 << 20), true, context.Background(), ErrReplicaCrash,
			func(st Stats) uint64 { return st.Crashes }},
		{"dead pool", crashy(1), false, context.Background(), ErrReplicaCrash,
			func(st Stats) uint64 { return st.Failed }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Options{MaxBatch: 1, Replicas: 1, Respawn: tc.respawn, NewExecutor: tc.newExec})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close(context.Background())
			for i := uint64(1); i <= 3; i++ {
				_, err := srv.Infer(tc.ctx, map[string]*tensor.Tensor{"x": inputFor(m, 1, i)})
				st := srv.Stats()
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("request %d: err %v, want %v", i, err, tc.wantErr)
				}
				if got := tc.counter(st); got != i {
					t.Fatalf("after answer %d the path's counter reads %d: %+v", i, got, st)
				}
				if answered := st.Requests + st.Failed + st.Expired; answered != i {
					t.Fatalf("after answer %d served+failed+expired = %d", i, answered)
				}
			}
		})
	}
}
