package serve

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/models"
	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

func traceTestServer(t *testing.T, tr *trace.Tracer, tweak func(*Options)) *Server {
	t.Helper()
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	opts := Options{
		MaxBatch:    4,
		MaxLinger:   2 * time.Millisecond,
		Replicas:    2,
		Tracer:      tr,
		NewExecutor: func() (executor.GraphExecutor, error) { return executor.New(m) },
	}
	if tweak != nil {
		tweak(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	return srv
}

// TestTraceSpanTreeUnderLoad is the span-tree integrity property test:
// under concurrent traced load, every retained trace is a well-formed
// tree, every batch span links exactly the traces of the requests it
// coalesced, and the full admit→queue→batch→execute→op chain appears.
func TestTraceSpanTreeUnderLoad(t *testing.T) {
	tr := trace.New(trace.Options{
		Seed: 11, SampleEvery: 1, SlowThreshold: time.Hour,
		Capacity: 512, Process: "serve-test",
	})
	srv := traceTestServer(t, tr, nil)

	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(uint64(i+2)), 0, 1, 1, 1, 4, 4)}
				if _, err := srv.Infer(context.Background(), feeds); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	traces := tr.Recorder().Traces()
	roots := map[uint64]bool{} // trace IDs with a serve.request root
	for _, td := range traces {
		if err := trace.VerifyTree(td); err != nil {
			t.Fatal(err)
		}
		root, ok := td.Root()
		if !ok || root.Name != "serve.request" {
			t.Fatalf("trace %016x root %+v", td.ID, root)
		}
		roots[td.ID] = true
	}
	if len(roots) != workers*perWorker {
		t.Fatalf("%d request traces retained, want %d", len(roots), workers*perWorker)
	}

	// Every batch span's links resolve to retained request traces, its
	// own trace among them; counting links over all batches re-counts
	// every request exactly once (each request joins exactly one batch).
	linked := map[uint64]int{}
	fullChains := 0
	for _, td := range traces {
		spans := map[uint64]trace.SpanData{}
		for _, s := range td.Spans {
			spans[s.ID] = s
		}
		for _, s := range td.Spans {
			if s.Name != "serve.batch" {
				continue
			}
			if len(s.Links) == 0 {
				t.Fatalf("batch span %016x has no links", s.ID)
			}
			own := false
			for _, l := range s.Links {
				if !roots[l] {
					t.Fatalf("batch span links unknown trace %016x", l)
				}
				if l == td.ID {
					own = true
				}
				linked[l]++
			}
			if !own {
				t.Fatalf("batch span in trace %016x does not link its own trace", td.ID)
			}
		}
		// Chain check: op span → exec.forward → serve.execute →
		// serve.batch → serve.request root, with a serve.queue sibling.
		hasQueue := false
		for _, s := range td.Spans {
			if s.Name == "serve.queue" {
				hasQueue = true
			}
		}
		for _, s := range td.Spans {
			if !strings.HasPrefix(s.Name, "op:") {
				continue
			}
			want := []string{"exec.forward", "serve.execute", "serve.batch", "serve.request"}
			cur, ok := s, true
			for _, name := range want {
				cur, ok = spans[cur.Parent]
				if !ok || cur.Name != name {
					ok = false
					break
				}
			}
			if ok && hasQueue {
				fullChains++
			}
		}
	}
	for id, n := range linked {
		if n != 1 {
			t.Fatalf("request trace %016x linked by %d batches, want 1", id, n)
		}
	}
	if len(linked) != workers*perWorker {
		t.Fatalf("batches linked %d request traces, want %d", len(linked), workers*perWorker)
	}
	if fullChains == 0 {
		t.Fatal("no trace holds a complete queue→batch→execute→op chain")
	}
}

// TestTraceHTTPPropagation: an inbound d500-trace header remote-parents
// the request trace, and the response echoes the request's own trace
// context for the access log to pick up.
func TestTraceHTTPPropagation(t *testing.T) {
	tr := trace.New(trace.Options{Seed: 13, SampleEvery: 1, SlowThreshold: time.Hour, Process: "serve-test"})
	srv := traceTestServer(t, tr, nil)
	ts := oneModel(t, srv)

	body := `{"feeds":{"x":{"shape":[1,1,4,4],"data":[` + strings.Repeat("0.5,", 15) + `0.5]}}}`
	req, _ := http.NewRequest("POST", ts.URL+"/v1/infer", strings.NewReader(body))
	remote := trace.Remote{Trace: 0xabcdef0123456789, Span: 0x42}
	req.Header.Set(trace.HeaderName, trace.Format(remote.Trace, remote.Span))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	echo, ok := trace.Parse(resp.Header.Get(trace.HeaderName))
	if !ok {
		t.Fatalf("response d500-trace header %q does not parse", resp.Header.Get(trace.HeaderName))
	}
	if echo.Trace != remote.Trace {
		t.Fatalf("echoed trace %016x, want remote trace %016x", echo.Trace, remote.Trace)
	}
	td, ok := tr.Recorder().Trace(remote.Trace)
	if !ok {
		t.Fatal("remote-parented trace not retained")
	}
	root, ok := td.Root()
	if !ok || root.Name != "serve.request" || root.Parent != remote.Span {
		t.Fatalf("remote root %+v, want serve.request parented on %x", root, remote.Span)
	}
	if root.ID != echo.Span {
		t.Fatalf("echoed span %016x is not the root span %016x", echo.Span, root.ID)
	}

	// An untraced server sets no header.
	srv2 := traceTestServer(t, nil, nil)
	ts2 := oneModel(t, srv2)
	req2, _ := http.NewRequest("POST", ts2.URL+"/v1/infer", strings.NewReader(body))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if h := resp2.Header.Get(trace.HeaderName); h != "" {
		t.Fatalf("untraced server echoed %q", h)
	}
}
