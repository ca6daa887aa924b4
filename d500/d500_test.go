package d500

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"deep500/internal/models"
	"deep500/internal/tensor"
)

func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := map[string]Option{
		"unknown framework":   WithFramework("mxnetgo"),
		"zero ckpt cadence":   WithCheckpointEvery(0),
		"negative trace-slow": WithTraceSlow(-time.Second),
	}
	for name, opt := range cases {
		if _, err := New(opt); err == nil {
			t.Errorf("%s: New must fail", name)
		}
	}
}

func TestExecutionBeforeOpenFails(t *testing.T) {
	sess, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer(context.Background(), nil); !errors.Is(err, errNotOpen) {
		t.Fatalf("Infer before Open: %v", err)
	}
	if _, err := sess.NewDriver(SGD(0.1)); !errors.Is(err, errNotOpen) {
		t.Fatalf("NewDriver before Open: %v", err)
	}
}

func openSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 5}
	if err := sess.Open(models.MLP(cfg, 32)); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestSessionInferAndEvaluate drives a session by hand: Infer returns the
// loss and accuracy outputs and emits nothing, and the test-set evaluation
// of a Train run reaches the event stream and the result alike.
func TestSessionInferAndEvaluate(t *testing.T) {
	var events []Event
	sess := openSession(t, WithHook(func(e Event) {
		events = append(events, e)
	}))
	train, test := SyntheticSplit(128, 32, 4, []int{1, 8, 8}, 0.3, 7)
	b := SequentialSampler(train, 8).Next()
	out, err := sess.Infer(context.Background(), b.Feeds())
	if err != nil {
		t.Fatal(err)
	}
	if out["loss"] == nil || out["acc"] == nil {
		t.Fatalf("missing outputs: %v", out)
	}
	if len(events) != 0 {
		t.Fatalf("Infer emitted %v", events)
	}
	res, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: SGD(0.05), Train: SequentialSampler(train, 8),
		Test: SequentialSampler(test, 16), Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.FinalTestAccuracy
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	if ev, ok := events[len(events)-1].(EpochEnd); !ok || ev.TestAccuracy != acc {
		t.Fatalf("last event %+v, want EpochEnd with test accuracy %v", events[len(events)-1], acc)
	}
}

func TestSessionTrainEmitsEventStream(t *testing.T) {
	var steps, epochs int
	sess := openSession(t, WithHook(func(e Event) {
		switch e.(type) {
		case StepEnd:
			steps++
		case EpochEnd:
			epochs++
		}
	}))
	train, test := SyntheticSplit(128, 32, 4, []int{1, 8, 8}, 0.3, 7)
	res, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: Momentum(0.05, 0.9),
		Train:     ShuffleSampler(train, 32, 1),
		Test:      SequentialSampler(test, 32),
		Epochs:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 8 || steps != 8 { // 128/32 × 2 epochs
		t.Fatalf("steps: result %d, events %d (want 8)", res.Steps, steps)
	}
	if res.Epochs != 2 || epochs != 2 {
		t.Fatalf("epochs: result %d, events %d (want 2)", res.Epochs, epochs)
	}
	if res.FinalTestAccuracy < 0 || res.FinalTestAccuracy > 1 {
		t.Fatalf("final accuracy: %v", res.FinalTestAccuracy)
	}
}

// TestTrainCancelStopsRunBetweenSteps is the API acceptance test:
// cancelling the context stops a training run between optimization steps
// and surfaces context.Canceled through Session.Train.
func TestTrainCancelStopsRunBetweenSteps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastStep int
	sess := openSession(t, WithHook(func(e Event) {
		if s, ok := e.(StepEnd); ok {
			lastStep = s.Step
			if s.Step == 3 {
				cancel()
			}
		}
	}))
	train, _ := SyntheticSplit(512, 64, 4, []int{1, 8, 8}, 0.3, 7)
	_, err := sess.Train(ctx, TrainConfig{
		Optimizer: SGD(0.05),
		Train:     ShuffleSampler(train, 32, 1),
		Epochs:    10,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if lastStep != 3 {
		t.Fatalf("run continued to step %d after cancellation at step 3", lastStep)
	}
}

func TestBenchDeadlineExceeded(t *testing.T) {
	sess, err := New(WithQuick(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sess.Bench(ctx, []string{"tables"}, BenchConfig{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestBenchEmitsBenchSamples(t *testing.T) {
	var samples []BenchSample
	sess, err := New(WithQuick(), WithHook(func(e Event) {
		if s, ok := e.(BenchSample); ok {
			samples = append(samples, s)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Bench(context.Background(), []string{"fig2"}, BenchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || len(samples) == 0 {
		t.Fatalf("experiments %d, samples %d", len(rep.Experiments), len(samples))
	}
	if samples[0].Experiment != "fig2" || samples[0].Metric == "" {
		t.Fatalf("sample: %+v", samples[0])
	}
	if got := len(rep.Experiments[0].Records); got != len(samples) {
		t.Fatalf("stream saw %d records, report has %d", len(samples), got)
	}
}

func TestSessionWithFramework(t *testing.T) {
	sess, err := New(WithFramework("cf2go"), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Framework() != "cf2go" {
		t.Fatalf("framework: %s", sess.Framework())
	}
	cfg := models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 5}
	if err := sess.Open(models.MLP(cfg, 16)); err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(0.5, 2, 1, 8, 8)
	labels := tensor.From([]float32{0, 1}, 2)
	out, err := sess.Infer(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels})
	if err != nil {
		t.Fatal(err)
	}
	if out["loss"] == nil {
		t.Fatalf("missing loss output: %v", out)
	}
}

func TestEvaluateRestoresInferenceMode(t *testing.T) {
	// The evaluation after each epoch must hand the executor back in
	// training mode (EpochEnd follows it), and a completed Train must hand
	// the session back in inference mode.
	var training []bool
	var ge interface{ Training() bool }
	sess := openSession(t, WithHook(func(e Event) {
		if _, ok := e.(EpochEnd); ok {
			training = append(training, ge.Training())
		}
	}))
	ge, err := sess.GraphExecutor()
	if err != nil {
		t.Fatal(err)
	}
	train, test := SyntheticSplit(64, 32, 4, []int{1, 8, 8}, 0.3, 7)
	if _, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: SGD(0.05), Train: ShuffleSampler(train, 32, 1),
		Test: SequentialSampler(test, 16), Epochs: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if len(training) != 2 || !training[0] || !training[1] {
		t.Fatalf("training mode after each epoch's evaluation: %v, want [true true]", training)
	}
	if ge.Training() {
		t.Fatal("Train left the session in training mode")
	}
}

func TestEvaluateMissingAccOutputErrors(t *testing.T) {
	sess := openSession(t)
	train, test := SyntheticSplit(64, 32, 4, []int{1, 8, 8}, 0.3, 7)
	_, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: SGD(0.05), Train: ShuffleSampler(train, 32, 1), Test: SequentialSampler(test, 16),
		AccOutput: "no-such-output",
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-output") {
		t.Fatalf("missing accuracy output must error, not report 0%%: %v", err)
	}
}

func TestWithSeedZeroUsesDefault(t *testing.T) {
	sess, err := New(WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	if sess.cfg.seed != 500 {
		t.Fatalf("WithSeed(0) resolved to %d, want default 500", sess.cfg.seed)
	}
}

func TestOptimizerByName(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "nesterov", "adagrad", "rmsprop", "adam", "accelegrad"} {
		if _, err := OptimizerByName(name, 0.01); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := OptimizerByName("lion", 0.01); err == nil {
		t.Fatal("unknown optimizer must error")
	}
}
