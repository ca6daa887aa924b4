// Package trace is Deep500-Go's dependency-free span tracer: the causal
// half of the observability surface, complementing the aggregate counters
// of internal/obs. A Tracer hands out spans — named, timestamped intervals
// with parent links, typed attributes and cross-trace links — and retains
// finished traces in a bounded in-memory flight recorder.
//
// # Sampling
//
// Tracing is cheap enough to leave on: every root span records its
// children into a per-trace buffer, and the keep/drop decision is made
// once, when the root ends ("tail sampling"). A trace is retained when any
// of these hold:
//
//   - head sampling: the trace is the 1-in-SampleEvery always-on sample;
//   - tail sampling: the root ran at least SlowThreshold, or any span in
//     the trace recorded an error;
//   - it was forced (Span.Force — used for job traces), or its root is
//     remote-parented (the initiating process already made the decision).
//
// Everything else is discarded and counted. The flight recorder keeps the
// most recent Capacity retained traces; GET /debug/traces serves them as
// JSON and GET /debug/traces/perfetto as Chrome trace-event JSON loadable
// in Perfetto (see Recorder.Handler).
//
// # Propagation
//
// Trace context crosses process boundaries two ways: the d500-trace HTTP
// header (Format/Parse, on the serve and jobs endpoints) and the trace
// fields of the transport frame header. A remote-parented root
// (StartRemote) grafts the local subtree onto the initiating process's
// trace; Recorder.Ingest merges spans uploaded by worker processes, so a
// distributed step renders as one tree.
//
// All Span and Tracer methods are safe on nil receivers: code threads
// *Span values unconditionally and pays a single nil check when tracing
// is disabled.
package trace

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deep500/internal/tensor"
)

// Defaults for Options fields left zero.
const (
	// DefaultCapacity is the flight recorder's trace capacity.
	DefaultCapacity = 256
	// DefaultSlowThreshold tail-samples roots at or above this latency.
	DefaultSlowThreshold = 250 * time.Millisecond
	// DefaultSampleEvery head-samples one trace in this many.
	DefaultSampleEvery = 64
	// DefaultMaxSpans bounds the spans buffered per trace.
	DefaultMaxSpans = 512
)

// Options configures a Tracer.
type Options struct {
	// Capacity is how many retained traces the flight recorder holds
	// (oldest evicted first). Default DefaultCapacity.
	Capacity int
	// SlowThreshold is the tail-sampling latency bound: a root span whose
	// duration reaches it retains its trace. Default DefaultSlowThreshold.
	SlowThreshold time.Duration
	// SampleEvery head-samples one root trace in N regardless of latency
	// (1 retains everything). Default DefaultSampleEvery.
	SampleEvery int
	// MaxSpansPerTrace bounds the span buffer of one trace; spans beyond
	// it are dropped and counted. Default DefaultMaxSpans.
	MaxSpansPerTrace int
	// Seed seeds the SplitMix64 ID generator; 0 derives a per-process seed
	// from the clock and pid, so concurrent processes do not collide.
	Seed uint64
	// Process names the process/component stamped on every span ("serve",
	// "launcher", "rank-1", ...), grouping spans in the Perfetto view.
	Process string
	// OnRetain, when non-nil, is called with every retained trace on the
	// goroutine that ended its root — the hook bridge for TraceSpan events.
	OnRetain func(TraceData)
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = DefaultMaxSpans
	}
	return o
}

// DefaultOptions returns the tracer's resolved defaults (what a zero
// Options becomes). d500info prints these.
func DefaultOptions() Options { return Options{}.withDefaults() }

// Attr is one typed span attribute. Build attrs with the String, Int,
// Bool and Duration constructors so values render consistently.
type Attr struct {
	// Key names the attribute.
	Key string
	// Value is the attribute value (string, int64 or bool).
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Duration builds a duration attribute, rendered in Go duration syntax.
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Float builds a floating-point attribute, rendered with %g.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)} }

// Tracer mints spans and owns the flight recorder. A nil *Tracer is the
// disabled tracer: every method no-ops and StartRoot returns a nil span.
type Tracer struct {
	opt Options
	rec *Recorder

	ids   atomic.Uint64 // SplitMix64 state
	roots atomic.Uint64 // root spans started, drives head sampling

	spans   atomic.Uint64 // spans ended under this tracer
	dropped atomic.Uint64 // spans discarded (unretained trace, cap, late)
	sampled atomic.Uint64 // traces retained
}

// New builds a tracer with opt resolved against the defaults.
func New(opt Options) *Tracer {
	opt = opt.withDefaults()
	t := &Tracer{opt: opt, rec: NewRecorder(opt.Capacity)}
	seed := opt.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())*tensor.SplitMixGamma ^ uint64(os.Getpid())<<32
	}
	t.ids.Store(seed)
	return t
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Counters snapshots the tracer's lifetime counters: spans ended, spans
// dropped, and traces retained — the d500_trace_* series.
func (t *Tracer) Counters() (spans, dropped, sampled uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.spans.Load(), t.dropped.Load(), t.sampled.Load()
}

// nextID draws the next SplitMix64 identifier (never zero: zero is the
// wire encoding of "untraced").
func (t *Tracer) nextID() uint64 {
	x := tensor.SplitMix64(t.ids.Add(tensor.SplitMixGamma))
	if x == 0 {
		x = 1
	}
	return x
}

// StartRoot begins a new trace with a local root span. The root's span ID
// doubles as the trace ID.
func (t *Tracer) StartRoot(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID()
	n := t.roots.Add(1)
	head := t.opt.SampleEvery == 1 || n%uint64(t.opt.SampleEvery) == 1
	return t.newSpan(&traceState{tracer: t, head: head}, SpanData{
		Trace: id, ID: id, Name: name, Attrs: attrs,
	}, true)
}

// StartRemote begins the local portion of a trace initiated elsewhere:
// the new root adopts the remote trace ID and parents on the remote span.
// Remote roots are always retained on End — the initiating process owns
// the sampling decision.
func (t *Tracer) StartRemote(rm Remote, name string, attrs ...Attr) *Span {
	if t == nil || rm.Trace == 0 {
		return nil
	}
	return t.newSpan(&traceState{tracer: t, remote: true}, SpanData{
		Trace: rm.Trace, ID: t.nextID(), Parent: rm.Span, Name: name, Attrs: attrs,
	}, true)
}

// newSpan stamps the shared fields and starts the clock.
func (t *Tracer) newSpan(st *traceState, d SpanData, root bool) *Span {
	d.Process = t.opt.Process
	d.Start = time.Now()
	return &Span{state: st, root: root, data: d}
}

// traceState accumulates the finished spans of one in-flight trace until
// its root ends and the retention decision is made.
type traceState struct {
	tracer *Tracer

	head   bool // head-sampled at StartRoot
	remote bool // remote-parented root: always retain

	mu     sync.Mutex
	spans  []SpanData
	forced bool // SetError/Force anywhere in the trace
	done   bool // root ended; late spans are dropped
}

// Span is one live interval of a trace. Methods are safe on nil receivers
// and safe for concurrent use, so spans started on different goroutines
// can share a parent.
type Span struct {
	state *traceState
	root  bool

	mu    sync.Mutex
	ended bool
	data  SpanData
}

// TraceID returns the span's trace identifier (0 for nil).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.Trace
}

// SpanID returns the span's identifier (0 for nil).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// StartChild begins a child span. Children started after the root ended
// return nil (and count as dropped when tracing is on).
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	st := s.state
	st.mu.Lock()
	done := st.done
	st.mu.Unlock()
	if done {
		st.tracer.dropped.Add(1)
		return nil
	}
	return st.tracer.newSpan(st, SpanData{
		Trace: s.data.Trace, ID: st.tracer.nextID(), Parent: s.data.ID,
		Name: name, Attrs: attrs,
	}, false)
}

// AddAttrs appends attributes; ignored after End.
func (s *Span) AddAttrs(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
}

// Link records a cross-trace link (a batch span links the traces of the
// requests it coalesced). Zero IDs are ignored.
func (s *Span) Link(traceID uint64) {
	if s == nil || traceID == 0 {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Links = append(s.data.Links, traceID)
	}
	s.mu.Unlock()
}

// SetError marks the span failed (recording the error as an attribute)
// and forces retention of the whole trace.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Error = true
		s.data.Attrs = append(s.data.Attrs, String("error", err.Error()))
	}
	s.mu.Unlock()
	s.Force()
}

// Force retains the span's trace regardless of latency or sampling.
func (s *Span) Force() {
	if s == nil {
		return
	}
	st := s.state
	st.mu.Lock()
	st.forced = true
	st.mu.Unlock()
}

// End finishes the span. Ending is idempotent. When the span is its
// trace's root, the retention decision runs: the trace's buffered spans
// either enter the flight recorder or are dropped and counted.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	d := s.data
	s.mu.Unlock()
	s.state.record(d, s.root)
}

// record buffers one finished span, finalizing the trace when the root
// lands.
func (st *traceState) record(d SpanData, root bool) {
	t := st.tracer
	t.spans.Add(1)
	st.mu.Lock()
	if st.done {
		st.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	if len(st.spans) < t.opt.MaxSpansPerTrace {
		st.spans = append(st.spans, d)
	} else {
		t.dropped.Add(1)
	}
	if !root {
		st.mu.Unlock()
		return
	}
	st.done = true
	spans := st.spans
	st.spans = nil
	retain := st.forced || st.remote || st.head
	st.mu.Unlock()

	if !retain && !d.Error && d.Duration < t.opt.SlowThreshold {
		t.dropped.Add(uint64(len(spans)))
		return
	}
	t.sampled.Add(1)
	td := TraceData{ID: d.Trace, Spans: spans}
	t.rec.add(td)
	if t.opt.OnRetain != nil {
		t.opt.OnRetain(td)
	}
}
