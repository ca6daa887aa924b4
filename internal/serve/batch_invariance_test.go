package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// TestRowOutputIndependentOfBatch pins, end to end, what the GEMM shape rule
// promises: a row served alone (M=1, B read in place), coalesced with 7
// others (M=8, still in place) and coalesced with 15 others (M=16, the packed
// kernel) comes back with the same bits. The models are the two the
// repository benchmark serves.
func TestRowOutputIndependentOfBatch(t *testing.T) {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 7}
	for name, m := range map[string]*graph.Model{
		"lenet": models.LeNet(cfg),
		"mlp":   models.MLP(cfg, 256, 256),
	} {
		t.Run(name, func(t *testing.T) {
			const rows = 16
			items := make([]*tensor.Tensor, rows)
			for i := range items {
				items[i] = inputFor(m, 1, uint64(500+i))
			}
			alone := serveCoalesced(t, m, items, 1)
			for _, batch := range []int{8, 16} {
				got := serveCoalesced(t, m, items[:batch], batch)
				for i := range got {
					for oname, want := range alone[i] {
						g := got[i][oname]
						if g == nil || !tensor.SameShape(g, want) {
							t.Fatalf("batch of %d, row %d: output %q missing or misshapen", batch, i, oname)
						}
						for j, v := range want.Data() {
							if math.Float32bits(g.Data()[j]) != math.Float32bits(v) {
								t.Fatalf("batch of %d, row %d, %s[%d] = %g; served alone it is %g",
									batch, i, oname, j, g.Data()[j], v)
							}
						}
					}
				}
			}
		})
	}
}

// serveCoalesced sends each item as its own request and returns the replies
// in item order. With batch > 1 the requests are fired together at a server
// that flushes only on a full batch, and the test fails unless exactly one
// pass of len(items) rows served them all.
func serveCoalesced(t *testing.T, m *graph.Model, items []*tensor.Tensor, batch int) []map[string]*tensor.Tensor {
	t.Helper()
	srv, err := New(Options{
		MaxBatch:    batch,
		MaxLinger:   time.Minute, // a full batch is the only flush
		Replicas:    1,
		QueueDepth:  len(items),
		NewExecutor: execFactory(m),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	got := make([]map[string]*tensor.Tensor, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.Infer(context.Background(), map[string]*tensor.Tensor{"x": items[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Batches != uint64(len(items)/batch) {
		t.Fatalf("%d requests at MaxBatch %d ran as %d passes, want %d", len(items), batch, st.Batches, len(items)/batch)
	}
	return got
}
