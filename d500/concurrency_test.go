package d500

import (
	"context"
	"sync"
	"testing"

	"deep500/internal/tensor"
)

// TestConcurrentSessionsSharedPool is the documented concurrency
// contract's proof (run under -race in CI): two Sessions on the
// process-wide kernel pool — and one model's weight tensors — can Infer
// concurrently, each out of its own memory plan, and produce the same
// outputs they produce alone.
func TestConcurrentSessionsSharedPool(t *testing.T) {
	m := serveModel()
	newSession := func() *Session {
		t.Helper()
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Open(m); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newSession()
	s2 := newSession()

	// Reference outputs, computed serially.
	in1, in2 := serveInput(2, 1), serveInput(2, 2)
	want1, err := s1.Infer(context.Background(), map[string]*tensor.Tensor{"x": in1})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := s2.Infer(context.Background(), map[string]*tensor.Tensor{"x": in2})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	var wg sync.WaitGroup
	run := func(s *Session, in *tensor.Tensor, want map[string]*tensor.Tensor) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			got, err := s.Infer(context.Background(), map[string]*tensor.Tensor{"x": in})
			if err != nil {
				t.Errorf("round %d: %v", r, err)
				return
			}
			for name, w := range want {
				g := got[name]
				if g == nil || !tensor.SameShape(w, g) {
					t.Errorf("round %d: output %q missing or misshapen", r, name)
					return
				}
				for i, v := range w.Data() {
					if g.Data()[i] != v {
						t.Errorf("round %d: output %q diverges under concurrency: %g vs %g",
							r, name, g.Data()[i], v)
						return
					}
				}
			}
		}
	}
	wg.Add(2)
	go run(s1, in1, want1)
	go run(s2, in2, want2)
	wg.Wait()
}
