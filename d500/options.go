package d500

import (
	"fmt"
	"strings"
	"time"

	"deep500/internal/frameworks"
)

// Frameworks returns the names New accepts for WithFramework, reference
// first.
func Frameworks() []string {
	names := []string{"reference"}
	for _, p := range frameworks.All() {
		names = append(names, p.Name)
	}
	return names
}

// config is the resolved Session configuration; options validate eagerly
// so New fails fast with a descriptive error.
type config struct {
	framework string
	seed      uint64 // always non-zero after New (defaultSeed fallback)
	quick     bool
	hook      Hook
	ckptEvery int // checkpoint cadence in steps (0 = every epoch)
	traceOwn  bool
	traceSlow time.Duration
	tracer    *Tracer
}

// Option configures a Session at construction. Options are applied in
// order; the first error aborts New.
type Option func(*config) error

// WithFramework selects an emulated framework profile ("tfgo", "torchgo",
// "cf2go") instead of the uninstrumented reference executor. The name is
// resolved at New: unknown frameworks error immediately.
func WithFramework(name string) Option {
	return func(c *config) error {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" || name == "reference" {
			c.framework = ""
			return nil
		}
		if _, ok := frameworks.ByName(name); !ok {
			return fmt.Errorf("d500: unknown framework backend %q (valid: %s)",
				name, strings.Join(Frameworks(), ", "))
		}
		c.framework = name
		return nil
	}
}

// WithSeed sets the seed driving every generator the session constructs
// (model init, synthetic data, benchmark problems). Zero selects the
// default seed (500), matching the benchmark suite's convention, so the
// seed recorded in benchmark reports is always the seed that ran.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		if seed == 0 {
			seed = defaultSeed
		}
		c.seed = seed
		return nil
	}
}

// defaultSeed mirrors core.Options' zero-seed convention.
const defaultSeed = 500

// WithQuick scales benchmark problem sizes and rerun counts down so the
// full suite completes in seconds (the -quick flag of d500bench).
func WithQuick() Option {
	return func(c *config) error {
		c.quick = true
		return nil
	}
}

// WithCheckpointEvery sets the cadence, in optimization steps, of the
// checkpoints Session.Train writes when TrainConfig.CheckpointPath is set:
// every n steps, the run's state (model weights, optimizer slots,
// sampler/RNG cursor) is written atomically on the training goroutine,
// which waits for the write. Without this option a checkpointing run
// writes at every epoch boundary instead. See TrainConfig.CheckpointPath
// and Resume.
func WithCheckpointEvery(steps int) Option {
	return func(c *config) error {
		if steps < 1 {
			return fmt.Errorf("d500: WithCheckpointEvery requires at least 1 step, got %d", steps)
		}
		c.ckptEvery = steps
		return nil
	}
}

// WithHook installs the session's event hook: the single observation
// channel through which training steps, epoch boundaries, evaluations and
// benchmark samples are reported. Use MultiHook to fan out to several
// consumers.
func WithHook(h Hook) Option {
	return func(c *config) error {
		c.hook = h
		return nil
	}
}

// WithTrace gives the session its own span tracer with default sampling
// (DefaultTraceConfig): training runs, serve requests and per-op executor
// work record into a bounded flight recorder, and every retained trace is
// reported to the session hook as a TraceSpan event. Use WithTracer
// instead to share one tracer (and one recorder) across several
// components. (This is the -trace flag of d500train.)
func WithTrace() Option {
	return func(c *config) error {
		c.traceOwn = true
		return nil
	}
}

// WithTraceSlow enables tracing (as WithTrace) and sets the tail-sampling
// latency threshold: any request or run whose root span lasts at least d
// is retained regardless of the head sampler. (This is the -trace-slow
// flag of d500train, d500serve and d500dist.)
func WithTraceSlow(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("d500: WithTraceSlow requires a positive threshold, got %v", d)
		}
		c.traceOwn = true
		c.traceSlow = d
		return nil
	}
}

// WithTracer attaches a shared tracer built by NewTracer, so this
// session's spans land in the same flight recorder as the other
// components holding it (a Server, a jobs manager). Shared tracers are
// not bound to the session hook — read them via Tracer.Handler or
// Metrics.ObserveTracer. A nil tracer is rejected; omit the option to
// run untraced.
func WithTracer(t *Tracer) Option {
	return func(c *config) error {
		if t == nil {
			return fmt.Errorf("d500: WithTracer requires a non-nil tracer (omit the option to disable tracing)")
		}
		c.tracer = t
		return nil
	}
}
