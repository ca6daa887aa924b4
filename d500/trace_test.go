package d500

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deep500/internal/models"
	"deep500/internal/obs"
	"deep500/internal/tensor"
)

func TestTraceOptionValidation(t *testing.T) {
	if _, err := New(WithTraceSlow(0)); err == nil {
		t.Error("WithTraceSlow(0) must fail")
	}
	if _, err := New(WithTraceSlow(-time.Second)); err == nil {
		t.Error("negative WithTraceSlow must fail")
	}
	if _, err := New(WithTracer(nil)); err == nil {
		t.Error("WithTracer(nil) must fail")
	}
	if _, err := NewTracer(TraceConfig{SlowThreshold: -1}); err == nil {
		t.Error("negative SlowThreshold must fail")
	}
	if _, err := NewTracer(TraceConfig{SampleEvery: -1}); err == nil {
		t.Error("negative SampleEvery must fail")
	}
}

// TestNilTracerIsInert: the documented contract that a nil *Tracer is
// valid everywhere tracing can be off.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if spans, dropped, sampled := tr.Counters(); spans != 0 || dropped != 0 || sampled != 0 {
		t.Fatal("nil tracer reports non-zero counters")
	}
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil tracer handler: %d, want 404", rec.Code)
	}
	sess, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if sess.tracer != nil {
		t.Fatal("untraced session claims a tracer")
	}
}

// TestSessionTraceSpanEvent: a session-owned tracer (WithTrace) traces a
// training run end to end — the hook receives a TraceSpan event whose
// exemplar ID retrieves the full train.run span tree from the flight
// recorder through the public Handler.
func TestSessionTraceSpanEvent(t *testing.T) {
	var traces []TraceSpan
	sess := openSession(t, WithTrace(), WithHook(func(e Event) {
		if ts, ok := e.(TraceSpan); ok {
			traces = append(traces, ts)
		}
	}))
	if sess.tracer == nil {
		t.Fatal("WithTrace session owns no tracer")
	}
	train, _ := SyntheticSplit(128, 32, 4, []int{1, 8, 8}, 0.3, 7)
	if _, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: SGD(0.05),
		Train:     ShuffleSampler(train, 32, 1),
		Epochs:    1,
	}); err != nil {
		t.Fatal(err)
	}
	// The first root is always head-sampled, so the single run is retained.
	if len(traces) != 1 {
		t.Fatalf("%d TraceSpan events, want 1", len(traces))
	}
	ev := traces[0]
	if ev.Name != "train.run" {
		t.Fatalf("root name %q, want train.run", ev.Name)
	}
	if len(ev.TraceID) != 16 {
		t.Fatalf("TraceID %q is not 16 hex digits", ev.TraceID)
	}
	if ev.Error {
		t.Fatal("successful run flagged as error")
	}
	// run + epoch + 4 steps at minimum; the sampled step adds op spans.
	if ev.Spans < 6 {
		t.Fatalf("retained trace has %d spans, want >= 6", ev.Spans)
	}

	rec := httptest.NewRecorder()
	sess.tracer.Handler().ServeHTTP(rec,
		httptest.NewRequest("GET", "/debug/traces?trace="+ev.TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/traces?trace=%s: %d\n%s", ev.TraceID, rec.Code, rec.Body)
	}
	var got struct {
		Trace string `json:"trace"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace != ev.TraceID || len(got.Spans) != ev.Spans {
		t.Fatalf("recorder serves trace %s with %d spans, event said %s/%d",
			got.Trace, len(got.Spans), ev.TraceID, ev.Spans)
	}
	names := map[string]int{}
	for _, s := range got.Spans {
		names[s.Name]++
	}
	for _, want := range []string{"train.run", "train.epoch", "train.step", "exec.forward"} {
		if names[want] == 0 {
			t.Errorf("retained trace has no %q span (got %v)", want, names)
		}
	}
	spans, _, sampled := sess.tracer.Counters()
	if spans == 0 || sampled == 0 {
		t.Fatalf("counters: %d spans, %d sampled — want both non-zero", spans, sampled)
	}
}

// TestObserveTracerCoversTraceNames: ObserveTracer registers every
// canonical d500_trace_* series — the code-side closure of the docscheck
// gate, like TestMetricsCoversCanonicalNames for the core names. A nil
// tracer still registers the series at zero.
func TestObserveTracerCoversTraceNames(t *testing.T) {
	metrics := NewMetrics()
	metrics.ObserveTracer(nil)
	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range obs.TraceNames() {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("canonical metric %s is not registered by ObserveTracer", name)
		}
	}
	for _, want := range []string{
		"d500_trace_spans_total 0",
		"d500_trace_spans_dropped_total 0",
		"d500_trace_traces_sampled_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestServerTracerWiring: WithSession(WithTracer) lands serve spans in
// the shared recorder.
func TestServerTracerWiring(t *testing.T) {
	tr, err := NewTracer(TraceConfig{SampleEvery: 1, SlowThreshold: time.Hour, Process: "serve-test"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := New(WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if sess.tracer != tr {
		t.Fatal("WithTracer session does not share the tracer")
	}
	metrics := NewMetrics()
	metrics.ObserveTracer(tr)
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	srv, err := NewServer(m, WithMaxBatch(2), WithSession(WithTracer(tr)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	rng := tensor.NewRNG(3)
	if _, err := srv.Infer(context.Background(), map[string]*tensor.Tensor{
		"x": tensor.RandNormal(rng, 0, 1, 1, 1, 4, 4),
	}); err != nil {
		t.Fatal(err)
	}
	spans, _, sampled := tr.Counters()
	if spans == 0 || sampled == 0 {
		t.Fatalf("serve request recorded %d spans, %d sampled — want both non-zero", spans, sampled)
	}
	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "d500_trace_traces_sampled_total 1") {
		t.Fatalf("sampled counter not exported:\n%s", rec.Body.String())
	}
}
