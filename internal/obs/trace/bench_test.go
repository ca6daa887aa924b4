package trace

import (
	"context"
	"testing"
	"time"
)

// The disabled-tracer path is what every request, step and op pays when
// tracing is off: a nil-receiver method call or one context Value lookup
// returning nil. These benchmarks pin that cost near zero — CI runs them
// as a smoke in its trace-off overhead step, and TestDisabledPathAllocs
// below turns the allocation half into a hard test-time assertion.

func BenchmarkDisabledSpanLifecycle(b *testing.B) {
	var t *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := t.StartRoot("bench")
		child := root.StartChild("child")
		child.End()
		root.End()
	}
}

func BenchmarkDisabledFromContext(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := FromContext(ctx)
		s.StartChild("op").End()
	}
}

func BenchmarkEnabledSpanLifecycle(b *testing.B) {
	// The traced counterpart, for scale: SampleEvery 1 retains everything,
	// a generous slow threshold keeps tail sampling out of the picture.
	t := New(Options{SampleEvery: 1, SlowThreshold: time.Hour, Seed: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := t.StartRoot("bench")
		child := root.StartChild("child")
		child.End()
		root.End()
	}
}

// TestDisabledPathAllocs asserts the disabled paths allocate nothing, so
// a regression fails `go test` everywhere — not only on the bench runner.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		root := tr.StartRoot("t")
		root.StartChild("c").End()
		root.SetError(nil)
		root.End()
	}); n != 0 {
		t.Errorf("disabled span lifecycle allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		FromContext(ctx).StartChild("op").End()
	}); n != 0 {
		t.Errorf("disabled context lookup allocates %v times per run, want 0", n)
	}
}
