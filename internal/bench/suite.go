package bench

import (
	"context"
	"fmt"
	"io"
	"time"
)

// RunFunc executes one experiment: it renders human output to ctx.Out and
// emits machine-readable records through the ctx recording API.
type RunFunc func(ctx *Context) error

// Definition is one registered experiment.
type Definition struct {
	ID    string
	Title string
	Run   RunFunc
}

// Suite is the experiment registry: experiments register themselves instead
// of being a hardcoded id list in cmd/d500bench.
type Suite struct {
	defs []Definition
	byID map[string]int
}

// NewSuite returns an empty registry.
func NewSuite() *Suite {
	return &Suite{byID: map[string]int{}}
}

// Register adds an experiment. Duplicate or empty ids and nil run functions
// are programming errors and panic at startup.
func (s *Suite) Register(d Definition) {
	if d.ID == "" || d.Run == nil {
		panic("bench: Register requires an id and a run function")
	}
	if _, dup := s.byID[d.ID]; dup {
		panic(fmt.Sprintf("bench: experiment %q registered twice", d.ID))
	}
	s.byID[d.ID] = len(s.defs)
	s.defs = append(s.defs, d)
}

// IDs returns every registered experiment id in registration order.
func (s *Suite) IDs() []string {
	out := make([]string, len(s.defs))
	for i, d := range s.defs {
		out[i] = d.ID
	}
	return out
}

// Has reports whether id is registered.
func (s *Suite) Has(id string) bool {
	_, ok := s.byID[id]
	return ok
}

// Lookup returns the definition for id.
func (s *Suite) Lookup(id string) (Definition, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Definition{}, false
	}
	return s.defs[i], true
}

// RunConfig configures one suite run.
type RunConfig struct {
	// Out receives the human-readable rendering (tables); nil discards it,
	// which is what -format json uses.
	Out io.Writer
	// Env is stamped into the report; callers fill the harness-controlled
	// fields (Quick, Seed) on top of CaptureEnv().
	Env Environment
	// Now overrides the report clock (tests); nil uses time.Now.
	Now func() time.Time
	// Observe, when non-nil, is invoked for every record an experiment
	// appends, as it is appended — the hook the d500 event stream consumes
	// to surface BenchSample events while the suite is still running.
	Observe func(experimentID string, r Record)
}

// Run executes the named experiments in order and assembles the report.
// The context is checked before each experiment, so cancellation or an
// expired deadline stops the suite at an experiment boundary and is also
// visible to experiments through Context.Ctx. Experiments that were run
// before an error occurred stay in the returned report so partial results
// are not lost.
func (s *Suite) Run(ctx context.Context, ids []string, cfg RunConfig) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Suite:         "d500bench",
		CreatedAt:     now().UTC().Format(time.RFC3339),
		Env:           cfg.Env,
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		def, ok := s.Lookup(id)
		if !ok {
			return rep, fmt.Errorf("unknown experiment %q (known: %v)", id, s.IDs())
		}
		c := &Context{Ctx: ctx, Out: out, observe: cfg.Observe, exp: Experiment{ID: def.ID, Title: def.Title}}
		if err := def.Run(c); err != nil {
			return rep, fmt.Errorf("%s: %w", id, err)
		}
		rep.Experiments = append(rep.Experiments, c.exp)
	}
	return rep, nil
}

// Context is handed to each experiment's RunFunc: human output plus the
// record sink for the machine-readable report.
type Context struct {
	// Ctx is the run's context; experiments that execute graphs or training
	// loops must pass it down so cancellation propagates mid-experiment.
	Ctx context.Context
	// Out is where tables render in text mode (io.Discard in json mode).
	Out io.Writer

	observe func(experimentID string, r Record)
	exp     Experiment
}

// Record appends a fully built record and returns a pointer to the stored
// copy so the caller can attach Work, Warmup or memory counters; use the
// pointer before the next append.
func (c *Context) Record(r Record) *Record {
	c.exp.Records = append(c.exp.Records, r)
	if c.observe != nil {
		c.observe(c.exp.ID, r)
	}
	return &c.exp.Records[len(c.exp.Records)-1]
}

// RecordSamples derives stats from samples and appends the record.
func (c *Context) RecordSamples(name, unit string, better Direction, samples []float64) *Record {
	return c.Record(NewRecord(name, unit, better, samples))
}

// RecordValue appends a single-observation record (deterministic counts,
// final accuracies, simulated-clock results).
func (c *Context) RecordValue(name, unit string, better Direction, v float64) *Record {
	return c.RecordSamples(name, unit, better, []float64{v})
}

// Note attaches a free-form note to the experiment.
func (c *Context) Note(format string, args ...any) {
	c.exp.Notes = append(c.exp.Notes, fmt.Sprintf(format, args...))
}
