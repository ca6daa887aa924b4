package training

import (
	"context"
	"fmt"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/metrics"
	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// traceStepEvery samples one optimization step per this many for per-op
// tracing: step spans are cheap, but wiring the executor's op spans under
// every step of a long run would blow the per-trace span budget, so only
// the first step and every traceStepEvery-th get the full subtree.
const traceStepEvery = 100

// Runner is the training-and-testing loop manager of Deep500's design
// (Fig. 3, Level 2): it drives an Optimizer over a training sampler, runs
// periodic evaluation over a test sampler, and feeds the Level 2 metrics
// (TrainingAccuracy, TestAccuracy, loss series, time-to-accuracy).
type Runner struct {
	Opt         Optimizer
	TrainSet    Sampler
	TestSet     Sampler // may be nil
	LossOutput  string  // model output carrying the loss (default "loss")
	AccOutput   string  // model output carrying batch accuracy (default "acc")
	TrainingAcc *metrics.Series
	TestAcc     *metrics.Series
	LossCurve   *metrics.Series
	TTA         *metrics.TimeToAccuracy // optional
	// AfterStep/AfterEpoch are user hooks (may be nil).
	AfterStep  func(step int, loss, acc float64)
	AfterEpoch func(epoch int, testAcc float64)
	// StopOnNaN aborts training when the loss becomes NaN/Inf (used by the
	// weak-scaling experiment to detect exploding losses).
	StopOnNaN bool
	// Checkpoint, when set, makes the runner write exact-resume checkpoints
	// at its own step and epoch boundaries (see Checkpointing).
	Checkpoint *Checkpointing

	step       int
	epochsDone int
	// skipReset makes the next RunEpoch continue the sampler's in-flight
	// epoch instead of resetting it — set by ResumeAt for mid-epoch resume.
	skipReset bool
	// unsaved is set once a step has completed since the last checkpoint
	// write; interrupted when the between-step context check, which only
	// runs inside an epoch, stopped the run.
	unsaved, interrupted bool
}

// Checkpointing configures the checkpoints a Runner writes through
// graph.SaveCheckpoint, synchronously on the training goroutine, of the live
// model its executor runs (the write serialises the weights before the
// next step can touch them, so nothing is copied first):
//   - every Every steps, before AfterStep, so a hook that stops the run
//     finds that step's checkpoint on disk; with Every = 0, at each epoch
//     boundary instead, before AfterEpoch;
//   - once more when RunEpochs returns after a completed run or from its
//     between-step context check, unless that step is already on disk.
//
// A Step that fails leaves the last checkpoint standing, and a write
// error is returned from Step or RunEpochs. The training sampler must be
// a CheckpointableSampler.
type Checkpointing struct {
	Path  string
	Every int
	// Opt holds the optimizer slots to save; nil saves none (a
	// parameter-server worker, whose server owns them).
	Opt CheckpointableOptimizer
	// Saved, when set, is called after each completed write.
	Saved func(step, epochsDone int)
}

// save writes a checkpoint of the run's current position.
func (r *Runner) save(midEpoch bool) error {
	c := r.Checkpoint
	cs, ok := r.TrainSet.(CheckpointableSampler)
	if !ok {
		return fmt.Errorf("training: sampler %T does not support checkpointing", r.TrainSet)
	}
	ck := &graph.Checkpoint{Model: r.Opt.Executor().Network().Model,
		Train: CaptureTrainState(r.step, r.epochsDone, midEpoch, c.Opt, cs)}
	if err := graph.SaveCheckpoint(ck, c.Path); err != nil {
		return fmt.Errorf("training: writing checkpoint %s: %w", c.Path, err)
	}
	r.unsaved = false
	if c.Saved != nil {
		c.Saved(r.step, r.epochsDone)
	}
	return nil
}

// Steps returns the number of optimization steps completed so far.
func (r *Runner) Steps() int { return r.step }

// EpochsDone returns the number of full epochs completed so far.
func (r *Runner) EpochsDone() int { return r.epochsDone }

// ResumeAt rewinds the runner's counters to a checkpointed position: step
// optimization steps and epochsDone full epochs already behind us. When
// midEpoch is set the next RunEpoch continues the sampler's current cursor
// (the caller must have restored it) instead of starting a fresh epoch.
// RunEpochs(ctx, n) then trains the remaining n−epochsDone epochs, so step
// and epoch numbers reported to hooks continue the original run's sequence.
func (r *Runner) ResumeAt(step, epochsDone int, midEpoch bool) {
	r.step = step
	r.epochsDone = epochsDone
	r.skipReset = midEpoch
}

// NewRunner returns a runner with default metric cadences (training
// accuracy every step, test accuracy every epoch).
func NewRunner(opt Optimizer, train, test Sampler) *Runner {
	return &Runner{
		Opt: opt, TrainSet: train, TestSet: test,
		LossOutput:  "loss",
		AccOutput:   "acc",
		TrainingAcc: metrics.NewSeries(1),
		TestAcc:     metrics.NewSeries(1),
		LossCurve:   metrics.NewSeries(1),
	}
}

// Step runs a single optimization step on one batch and returns the loss.
// Under a traced context (trace.NewContext upstream) it emits a
// "train.step" span; the first step and every traceStepEvery-th also
// parent the executor's forward/backward op spans.
func (r *Runner) Step(ctx context.Context, b *Batch) (float64, error) {
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		sampled := r.step%traceStepEvery == 0
		span = parent.StartChild("train.step",
			trace.Int("step", r.step+1), trace.Bool("ops", sampled))
		if sampled {
			ctx = trace.NewContext(ctx, span)
		} else {
			ctx = trace.WithoutSpan(ctx)
		}
	}
	out, err := r.Opt.Train(ctx, b.Feeds())
	if err != nil {
		span.SetError(err)
		span.End()
		return 0, err
	}
	r.step++
	var loss, acc float64
	if t, ok := out[r.LossOutput]; ok && t.Size() == 1 {
		loss = float64(t.Data()[0])
	}
	if t, ok := out[r.AccOutput]; ok && t.Size() == 1 {
		acc = float64(t.Data()[0])
	}
	if r.TrainingAcc != nil {
		r.TrainingAcc.Observe(r.step, acc)
	}
	if r.LossCurve != nil {
		r.LossCurve.Observe(r.step, loss)
	}
	r.unsaved = true
	diverged := r.StopOnNaN && (loss != loss || loss > 1e30)
	if c := r.Checkpoint; c != nil && c.Every > 0 && r.step%c.Every == 0 && !diverged {
		if err := r.save(true); err != nil {
			span.SetError(err)
			span.End()
			return loss, err
		}
	}
	if r.AfterStep != nil {
		r.AfterStep(r.step, loss, acc)
	}
	span.AddAttrs(trace.Float("loss", loss), trace.Float("acc", acc))
	span.End()
	if diverged {
		return loss, fmt.Errorf("training: loss diverged at step %d (%v)", r.step, loss)
	}
	return loss, nil
}

// RunEpoch trains over one pass of the training sampler and returns the
// mean loss. The context is checked between steps, so cancellation stops
// the epoch at a batch boundary.
func (r *Runner) RunEpoch(ctx context.Context) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resumed := r.skipReset
	r.skipReset = false
	if !resumed {
		r.TrainSet.Reset()
	}
	var span *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		span = parent.StartChild("train.epoch",
			trace.Int("epoch", r.epochsDone+1), trace.Bool("resumed", resumed))
		ctx = trace.NewContext(ctx, span)
	}
	mean, n, err := r.runEpochSteps(ctx, resumed)
	span.AddAttrs(trace.Int("steps", n))
	span.SetError(err)
	span.End()
	return mean, err
}

// runEpochSteps is RunEpoch's step loop, split out so the epoch span can
// observe the outcome on every return path.
func (r *Runner) runEpochSteps(ctx context.Context, resumed bool) (float64, int, error) {
	var total float64
	var n int
	for {
		if err := ctx.Err(); err != nil {
			r.interrupted = true
			return 0, n, err
		}
		b := r.TrainSet.Next()
		if b == nil {
			break
		}
		loss, err := r.Step(ctx, b)
		if err != nil {
			return 0, n, err
		}
		total += loss
		n++
	}
	if n == 0 {
		if resumed {
			// The checkpoint fell exactly on the epoch boundary; nothing
			// of this epoch remains.
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("training: empty epoch")
	}
	return total / float64(n), n, nil
}

// RunEpochs trains until n total epochs are done, with per-epoch
// evaluation. On a fresh runner that is n epochs; on one rewound with
// ResumeAt it is the remaining n−EpochsDone(). Cancelling ctx stops
// training between steps and surfaces the context's error; with
// Checkpoint set, the position it stopped at is written first.
func (r *Runner) RunEpochs(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	r.interrupted = false
	err := r.runEpochs(ctx, n)
	if r.Checkpoint != nil && r.unsaved && (err == nil || r.interrupted) {
		if werr := r.save(r.interrupted); werr != nil {
			return werr
		}
	}
	return err
}

// runEpochs is RunEpochs' epoch loop, split out so the final checkpoint
// sees how it returned.
func (r *Runner) runEpochs(ctx context.Context, n int) error {
	for epoch := r.epochsDone + 1; epoch <= n; epoch++ {
		if _, err := r.RunEpoch(ctx); err != nil {
			return err
		}
		r.epochsDone = epoch
		var testAcc float64
		if r.TestSet != nil {
			var err error
			testAcc, err = r.Evaluate(ctx, r.TestSet)
			if err != nil {
				return err
			}
			if r.TestAcc != nil {
				r.TestAcc.Observe(r.step, testAcc)
			}
			if r.TTA != nil {
				r.TTA.Observe(testAcc)
			}
		}
		if c := r.Checkpoint; c != nil && c.Every == 0 {
			if err := r.save(false); err != nil {
				return err
			}
		}
		if r.AfterEpoch != nil {
			r.AfterEpoch(epoch, testAcc)
		}
	}
	return nil
}

// Evaluate computes mean accuracy of the model over a sampler (inference
// mode, no parameter updates). Inference failures are returned, never
// folded into the accuracy: a broken model reports an error instead of a
// silent 0% score.
func (r *Runner) Evaluate(ctx context.Context, s Sampler) (float64, error) {
	span := trace.FromContext(ctx).StartChild("train.eval")
	if span != nil {
		ctx = trace.NewContext(ctx, span)
	}
	acc, err := EvaluateExecutor(ctx, r.Opt.Executor(), s, r.AccOutput)
	span.AddAttrs(trace.Float("acc", acc))
	span.SetError(err)
	span.End()
	return acc, err
}

// EvaluateExecutor runs a sampler through an executor in inference mode
// and returns the sample-weighted mean of the named accuracy output. The
// executor's previous training/inference mode is restored afterwards, so
// evaluating between training steps hands the executor back in training
// mode. Batches whose outputs lack the accuracy tensor are an
// error, never a silent 0% score.
func EvaluateExecutor(ctx context.Context, exec executor.GraphExecutor, s Sampler, accOutput string) (float64, error) {
	if accOutput == "" {
		accOutput = "acc"
	}
	prev := exec.Training()
	exec.SetTraining(false)
	defer exec.SetTraining(prev)
	s.Reset()
	var correctWeighted float64
	var total, batches int
	for {
		b := s.Next()
		if b == nil {
			break
		}
		batches++
		out, err := exec.Inference(ctx, b.Feeds())
		if err != nil {
			return 0, fmt.Errorf("training: evaluation inference failed: %w", err)
		}
		if t, ok := out[accOutput]; ok && t.Size() == 1 {
			correctWeighted += float64(t.Data()[0]) * float64(b.Size())
			total += b.Size()
		}
	}
	if total == 0 {
		if batches > 0 {
			return 0, fmt.Errorf("training: model produced no scalar %q output during evaluation", accOutput)
		}
		return 0, nil
	}
	return correctWeighted / float64(total), nil
}

// EpochTime measures the wallclock duration of one training epoch without
// touching metric state — used by the Level 2 overhead experiment.
func (r *Runner) EpochTime(ctx context.Context) (time.Duration, error) {
	r.TrainSet.Reset()
	start := time.Now()
	for {
		b := r.TrainSet.Next()
		if b == nil {
			break
		}
		if _, err := r.Opt.Train(ctx, b.Feeds()); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// SyntheticClassification builds a deterministic, learnable classification
// dataset: each class has a random prototype pattern, and samples are the
// prototype plus Gaussian noise. It stands in for MNIST/CIFAR in
// convergence experiments, which then need no dataset download.
func SyntheticClassification(n, classes int, shape []int, noise float32, seed uint64) *InMemoryDataset {
	rng := tensor.NewRNG(seed)
	vol := tensor.Volume(shape)
	protos := make([][]float32, classes)
	for c := range protos {
		p := make([]float32, vol)
		for i := range p {
			p[i] = float32(rng.Norm())
		}
		protos[c] = p
	}
	data := make([]float32, n*vol)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		dst := data[i*vol : (i+1)*vol]
		for j := range dst {
			dst[j] = protos[c][j] + noise*float32(rng.Norm())
		}
	}
	return NewInMemoryDataset(data, labels, shape)
}

// SyntheticSplit generates train and test datasets that share the same
// class prototypes (the same underlying task) but disjoint noise draws —
// what a convergence experiment needs for test accuracy to be meaningful.
func SyntheticSplit(nTrain, nTest, classes int, shape []int, noise float32, seed uint64) (train, test *InMemoryDataset) {
	full := SyntheticClassification(nTrain+nTest, classes, shape, noise, seed)
	vol := tensor.Volume(shape)
	train = NewInMemoryDataset(full.data[:nTrain*vol], full.labels[:nTrain], shape)
	test = NewInMemoryDataset(full.data[nTrain*vol:], full.labels[nTrain:], shape)
	return
}
