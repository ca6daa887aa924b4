package d500

import (
	"context"
	"io"

	"deep500/internal/bench"
	"deep500/internal/core"
)

// BenchReport is the machine-readable benchmark report (re-exported from
// internal/bench so consumers can write, read and compare reports without
// importing internal packages).
type BenchReport = bench.Report

// BenchConfig parameterizes Session.Bench.
type BenchConfig struct {
	// Out receives the human-readable tables; nil discards them (JSON-only
	// runs).
	Out io.Writer
}

// coreOptions maps the session configuration onto the experiment options.
func (s *Session) coreOptions() core.Options {
	return core.Options{Quick: s.cfg.quick, Seed: s.cfg.seed}
}

// suite lazily builds (and caches) the registered experiment suite under
// the session's options; registration is pure so one registry serves
// every listing, lookup and run. Sessions are single-goroutine (see the
// Session doc), so no lock is needed.
func (s *Session) suite() *bench.Suite {
	if s.benchSuite == nil {
		s.benchSuite = bench.NewSuite()
		core.RegisterExperiments(s.benchSuite, s.coreOptions())
	}
	return s.benchSuite
}

// Experiments returns every registered benchmark experiment id in
// registration order.
func (s *Session) Experiments() []string { return s.suite().IDs() }

// HasExperiment reports whether id names a registered experiment.
func (s *Session) HasExperiment(id string) bool { return s.suite().Has(id) }

// Bench runs the named paper experiments (all of them when ids is empty)
// and returns the machine-readable report. Every record an experiment
// emits is also surfaced through the session hook as a BenchSample event.
// The context is observed between experiments and inside the ones that
// run graphs, so deadlines and cancellation stop long suites.
func (s *Session) Bench(ctx context.Context, ids []string, cfg BenchConfig) (*BenchReport, error) {
	suite := s.suite()
	if len(ids) == 0 {
		ids = suite.IDs()
	}
	env := bench.CaptureEnv()
	env.Quick = s.cfg.quick
	env.Seed = s.cfg.seed
	return suite.Run(ctx, ids, bench.RunConfig{
		Out: cfg.Out,
		Env: env,
		Observe: func(experimentID string, r bench.Record) {
			s.emit(BenchSample{
				Experiment: experimentID,
				Metric:     r.Name,
				Unit:       r.Unit,
				Value:      r.Stats.Median,
				Samples:    len(r.Samples),
			})
		},
	})
}

// Survey renderers: the paper's static tables and figures, exposed so
// informational binaries need no internal/core import.

// RenderTableI writes the paper's Table I (framework feature survey).
func RenderTableI(w io.Writer) { core.RenderTableI().Render(w) }

// RenderTableII writes the paper's Table II (benchmark feature survey).
func RenderTableII(w io.Writer) { core.RenderTableII().Render(w) }

// RenderFig2 writes the paper's Fig. 2 (compute nodes over time survey).
func RenderFig2(w io.Writer) { core.RenderFig2().Render(w) }
