package jobs

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"deep500/internal/obs/trace"
)

// startTracedControlPlane is startControlPlane with tracing on: the
// manager owns the launcher tracer, and every LocalRunner rank gets its
// own tracer instance — the same isolation separate OS processes have —
// so spans really travel the record-then-upload path.
func startTracedControlPlane(t *testing.T) (*Manager, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{Seed: 31, SlowThreshold: time.Hour, Process: "launcher"})
	runner := &LocalRunner{
		Heartbeat: 20,
		NewTracer: func(rank int) *trace.Tracer {
			return trace.New(trace.Options{
				Seed: 100 + uint64(rank), SlowThreshold: time.Hour,
				Process: fmt.Sprintf("rank-%d", rank),
			})
		},
	}
	m, err := NewManager(Config{
		Runner:           runner,
		HeartbeatTimeout: 10 * time.Second,
		PollInterval:     50 * time.Millisecond,
		Tracer:           tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	runner.ControlURL = srv.URL
	t.Cleanup(func() {
		m.Shutdown()
		srv.Close()
	})
	return m, tr
}

// TestDistributedTraceTree is the cross-process propagation acceptance
// check: a 2-worker DSGD job yields ONE trace in the manager's recorder
// holding the launcher's dist.job span plus both ranks' uploaded
// dist.rank subtrees with per-step and per-op spans.
func TestDistributedTraceTree(t *testing.T) {
	m, tr := startTracedControlPlane(t)
	job, err := m.Submit(Spec{
		Scheme: SchemeDSGD, Workers: 2, Epochs: 1, Batch: 8, Samples: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trace.Parse(job.Spec.Trace); !ok {
		t.Fatalf("submitted spec carries no trace context: %q", job.Spec.Trace)
	}
	awaitState(t, m, job.ID, StateSucceeded, 30*time.Second)

	// The rank uploads race the job's terminal transition; poll briefly.
	rm, _ := trace.Parse(job.Spec.Trace)
	var td trace.TraceData
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ok bool
		td, ok = tr.Recorder().Trace(rm.Trace)
		if ok && countSpans(td, "dist.rank") == 2 && countSpans(td, "dist.job") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %016x incomplete: %d dist.job, %d dist.rank spans",
				rm.Trace, countSpans(td, "dist.job"), countSpans(td, "dist.rank"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := trace.VerifyTree(td); err != nil {
		t.Fatal(err)
	}
	spans := map[uint64]trace.SpanData{}
	for _, s := range td.Spans {
		spans[s.ID] = s
	}
	root, ok := td.Root()
	if !ok || root.Name != "dist.job" {
		t.Fatalf("root %+v, want dist.job", root)
	}
	// Both rank spans parent on the job span, across process boundaries.
	ranks := 0
	for _, s := range td.Spans {
		if s.Name != "dist.rank" {
			continue
		}
		ranks++
		if s.Parent != root.ID {
			t.Fatalf("dist.rank span parented on %016x, want job span %016x", s.Parent, root.ID)
		}
		if s.Process == root.Process {
			t.Fatalf("rank span claims launcher process %q", s.Process)
		}
	}
	if ranks != 2 {
		t.Fatalf("%d dist.rank spans, want 2", ranks)
	}
	// The sampled first step of each rank carries its op subtree.
	if n := countSpans(td, "train.step"); n < 2 {
		t.Fatalf("%d train.step spans, want at least one per worker", n)
	}
	opChains := 0
	for _, s := range td.Spans {
		if s.Name != "exec.forward" {
			continue
		}
		step, ok := spans[s.Parent]
		if !ok || step.Name != "train.step" {
			t.Fatalf("exec.forward parented on %+v, want train.step", step)
		}
		opChains++
	}
	if opChains == 0 {
		t.Fatal("no exec.forward span under any train.step")
	}
}

func countSpans(td trace.TraceData, name string) int {
	n := 0
	for _, s := range td.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}
