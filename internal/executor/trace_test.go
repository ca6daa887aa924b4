package executor

import (
	"context"
	"testing"
	"time"

	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// traceCtx builds a retain-everything tracer and a context carrying a
// fresh root span.
func traceCtx(t *testing.T) (*trace.Tracer, *trace.Span, context.Context) {
	t.Helper()
	tr := trace.New(trace.Options{Seed: 9, SampleEvery: 1, SlowThreshold: time.Hour, Process: "test"})
	root := tr.StartRoot("pass")
	return tr, root, trace.NewContext(context.Background(), root)
}

// TestTracedForwardOpSpans: a traced inference yields one pass span plus
// one op span per executed node, parented correctly.
func TestTracedForwardOpSpans(t *testing.T) {
	x, labels := xorData()
	// The subtest is named after the executor's (sequential) schedule.
	t.Run("sequential", func(t *testing.T) {
		e := MustNew(xorModel())
		tr, root, ctx := traceCtx(t)
		if _, err := e.Inference(ctx, map[string]*tensor.Tensor{"x": x, "labels": labels}); err != nil {
			t.Fatal(err)
		}
		root.End()
		td, ok := tr.Recorder().Trace(root.TraceID())
		if !ok {
			t.Fatal("trace not retained")
		}
		if err := trace.VerifyTree(td); err != nil {
			t.Fatal(err)
		}
		var fwd trace.SpanData
		ops := 0
		for _, s := range td.Spans {
			switch {
			case s.Name == "exec.forward":
				fwd = s
			case len(s.Name) > 3 && s.Name[:3] == "op:":
				ops++
			}
		}
		if fwd.ID == 0 || fwd.Parent != root.SpanID() {
			t.Fatalf("pass span %+v not parented on root", fwd)
		}
		if want := len(e.order); ops != want {
			t.Fatalf("%d op spans, want %d", ops, want)
		}
	})
}

// TestTracedBackwardSpans: a traced training pass adds the backward loop
// span with per-node backward op spans.
func TestTracedBackwardSpans(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	tr, root, ctx := traceCtx(t)
	if _, err := e.InferenceAndBackprop(ctx, map[string]*tensor.Tensor{"x": x, "labels": labels}, "l"); err != nil {
		t.Fatal(err)
	}
	root.End()
	td, ok := tr.Recorder().Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if err := trace.VerifyTree(td); err != nil {
		t.Fatal(err)
	}
	var bwd bool
	bops := 0
	for _, s := range td.Spans {
		switch {
		case s.Name == "exec.backward":
			bwd = true
		case len(s.Name) > 7 && s.Name[:7] == "op.bwd:":
			bops++
		}
	}
	if !bwd || bops == 0 {
		t.Fatalf("backward spans missing (loop=%v, ops=%d)", bwd, bops)
	}
}

// TestUntracedPassZeroOverhead pins the disabled-tracing cost: an
// untraced context adds zero allocations to a planned steady-state pass
// (the same property TestMemPlanZeroAllocs gates, re-stated here against
// the instrumented execNode path).
func TestUntracedPassZeroOverhead(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
	ctx := context.Background()
	if _, err := e.Inference(ctx, feeds); err != nil {
		t.Fatal(err)
	}
	if e.passSpan != nil {
		t.Fatal("untraced pass left a pass span behind")
	}
	// A context without a span behaves identically to Background.
	ctx2 := trace.NewContext(context.Background(), nil)
	if _, err := e.Inference(ctx2, feeds); err != nil {
		t.Fatal(err)
	}
}
