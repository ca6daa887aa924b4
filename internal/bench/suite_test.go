package bench

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSuiteRegisterAndRun(t *testing.T) {
	s := NewSuite()
	s.Register(Definition{ID: "one", Title: "first", Run: func(c *Context) error {
		c.Out.Write([]byte("human output\n"))
		c.RecordValue("metric", "s", LowerIsBetter, 1.5)
		c.Note("note %d", 7)
		return nil
	}})
	s.Register(Definition{ID: "two", Run: func(c *Context) error {
		r := c.RecordSamples("dist", "s", LowerIsBetter, []float64{1, 2, 3})
		r.Warmup = 2
		return nil
	}})

	if got := s.IDs(); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("ids: %v", got)
	}
	if !s.Has("one") || s.Has("absent") {
		t.Fatal("Has broken")
	}

	var human bytes.Buffer
	env := Environment{NumCPU: 4, Quick: true, Seed: 7}
	now := func() time.Time { return time.Date(2026, 7, 25, 12, 0, 0, 0, time.UTC) }
	rep, err := s.Run(context.Background(), []string{"one", "two"}, RunConfig{Out: &human, Env: env, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || rep.Suite != "d500bench" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.CreatedAt != "2026-07-25T12:00:00Z" {
		t.Fatalf("created_at: %s", rep.CreatedAt)
	}
	if rep.Env.Seed != 7 || !rep.Env.Quick {
		t.Fatalf("env not stamped: %+v", rep.Env)
	}
	if !strings.Contains(human.String(), "human output") {
		t.Fatal("human writer not wired")
	}
	if len(rep.Experiments) != 2 {
		t.Fatalf("experiments: %+v", rep.Experiments)
	}
	one := rep.Experiments[0]
	if one.ID != "one" || one.Title != "first" || len(one.Records) != 1 || len(one.Notes) != 1 {
		t.Fatalf("experiment one: %+v", one)
	}
	if one.Records[0].Stats.Median != 1.5 {
		t.Fatalf("stats: %+v", one.Records[0].Stats)
	}
	two := rep.Experiments[1]
	if two.Records[0].Warmup != 2 || two.Records[0].Stats.N != 3 || two.Records[0].Stats.Median != 2 {
		t.Fatalf("experiment two: %+v", two.Records[0])
	}
}

func TestSuiteDuplicateRegistrationPanics(t *testing.T) {
	s := NewSuite()
	run := func(*Context) error { return nil }
	s.Register(Definition{ID: "dup", Run: run})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	s.Register(Definition{ID: "dup", Run: run})
}

func TestSuiteUnknownIDFails(t *testing.T) {
	s := NewSuite()
	s.Register(Definition{ID: "known", Run: func(*Context) error { return nil }})
	if _, err := s.Run(context.Background(), []string{"missing"}, RunConfig{}); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestSuiteErrorKeepsPartialResults(t *testing.T) {
	s := NewSuite()
	s.Register(Definition{ID: "good", Run: func(c *Context) error {
		c.RecordValue("v", "s", LowerIsBetter, 1)
		return nil
	}})
	boom := errors.New("boom")
	s.Register(Definition{ID: "bad", Run: func(*Context) error { return boom }})
	rep, err := s.Run(context.Background(), []string{"good", "bad"}, RunConfig{})
	if !errors.Is(err, boom) {
		t.Fatalf("err: %v", err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "good" {
		t.Fatalf("partial results lost: %+v", rep.Experiments)
	}
}

func TestSuiteDeadlineExceededStopsRun(t *testing.T) {
	s := NewSuite()
	ran := 0
	slow := func(c *Context) error {
		ran++
		// Well-behaved experiments observe Context.Ctx mid-experiment.
		return c.Ctx.Err()
	}
	s.Register(Definition{ID: "a", Run: slow})
	s.Register(Definition{ID: "b", Run: slow})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	rep, err := s.Run(ctx, []string{"a", "b"}, RunConfig{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d experiments ran past an expired deadline", ran)
	}
	if len(rep.Experiments) != 0 {
		t.Fatalf("report should hold no completed experiments: %+v", rep.Experiments)
	}
}

func TestSuiteCancelBetweenExperiments(t *testing.T) {
	s := NewSuite()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Register(Definition{ID: "first", Run: func(c *Context) error {
		c.RecordValue("v", "s", LowerIsBetter, 1)
		cancel() // the run must stop before the next experiment
		return nil
	}})
	s.Register(Definition{ID: "second", Run: func(*Context) error {
		t.Fatal("second experiment ran after cancellation")
		return nil
	}})
	rep, err := s.Run(ctx, []string{"first", "second"}, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("partial results lost: %+v", rep.Experiments)
	}
}

func TestSuiteObserveStreamsRecords(t *testing.T) {
	s := NewSuite()
	s.Register(Definition{ID: "exp", Run: func(c *Context) error {
		c.RecordValue("m1", "s", LowerIsBetter, 1)
		c.RecordSamples("m2", "B", HigherIsBetter, []float64{1, 2, 3})
		return nil
	}})
	type obs struct {
		id, name string
		median   float64
	}
	var seen []obs
	_, err := s.Run(context.Background(), []string{"exp"}, RunConfig{
		Observe: func(id string, r Record) {
			seen = append(seen, obs{id, r.Name, r.Stats.Median})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != (obs{"exp", "m1", 1}) || seen[1] != (obs{"exp", "m2", 2}) {
		t.Fatalf("observed: %+v", seen)
	}
}

func TestRecordFLOPSDerivation(t *testing.T) {
	r := NewRecord("gemm", "s", LowerIsBetter, []float64{0.5})
	r.Work = 1_000_000
	r.Finalize()
	if r.Stats.FLOPS != 2_000_000 {
		t.Fatalf("FLOPS: %v", r.Stats.FLOPS)
	}
	// FLOP/s only makes sense for timings.
	c := NewRecord("count", "rows", HigherIsBetter, []float64{10})
	c.Work = 100
	c.Finalize()
	if c.Stats.FLOPS != 0 {
		t.Fatalf("non-timing FLOPS: %v", c.Stats.FLOPS)
	}
}
