package d500

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deep500/internal/metrics"
	"deep500/internal/obs/trace"
	"deep500/internal/training"
)

// Re-exported training types. These aliases are the public names of the
// Level 2 data-path vocabulary, so consumers never import
// internal/training to construct a session-driven run. Custom optimizers
// implement ThreeStep; custom distributed schemes implement Optimizer.
type (
	// ThreeStep is the paper's three-step optimizer abstraction
	// (new_input / prepare_param / update_rule).
	ThreeStep = training.ThreeStep
	// Optimizer runs one training step per call; the distributed schemes
	// in internal/dist satisfy it too.
	Optimizer = training.Optimizer
	// Driver is the reference Optimizer driving a ThreeStep against the
	// session's executor.
	Driver = training.Driver
	// Batch is one minibatch of samples plus labels.
	Batch = training.Batch
	// Sampler yields batches until an epoch is exhausted.
	Sampler = training.Sampler
	// Dataset is an indexable sample store.
	Dataset = training.Dataset
	// InMemoryDataset is the built-in in-memory Dataset.
	InMemoryDataset = training.InMemoryDataset
)

// Optimizer constructors: typed wrappers over the Level 2 optimizer zoo.
// Learning rates are float64 at the API surface and converted once. All of
// them except AcceleGrad are the fused in-place rules of
// internal/training/fused.go: one kernel pass over the live parameter
// tensor, no per-step allocation. The composing reference forms they are
// validated against are not reachable from the facade.

// SGD is plain gradient descent.
func SGD(lr float64) ThreeStep { return training.NewFusedSGD(float32(lr)) }

// Momentum is SGD with classical momentum.
func Momentum(lr, momentum float64) ThreeStep {
	return training.NewFusedMomentum(float32(lr), float32(momentum))
}

// AdaGrad adapts per-parameter rates by accumulated squared gradients.
func AdaGrad(lr float64) ThreeStep { return training.NewFusedAdaGrad(float32(lr)) }

// Adam is Adam in the Kingma & Ba formulation.
func Adam(lr float64) ThreeStep { return training.NewFusedAdam(float32(lr)) }

// AcceleGrad is the paper's custom-optimizer walkthrough (Listing 7).
func AcceleGrad(lr, d, g float64) ThreeStep {
	return training.NewAcceleGrad(float32(lr), float32(d), float32(g))
}

// OptimizerByName resolves a CLI optimizer selector: sgd, momentum,
// nesterov, adagrad, rmsprop, adam or accelegrad, with momentum and RMSProp
// decay 0.9 and AcceleGrad's D = G = 1. Unknown names return an error
// listing the valid set.
func OptimizerByName(name string, lr float64) (ThreeStep, error) {
	return training.RuleByName(name, float32(lr))
}

// Data helpers: public constructors for the built-in samplers and the
// synthetic dataset generators used throughout the examples and tests.

// SyntheticSplit generates train and test datasets sharing class
// prototypes but with disjoint noise draws.
func SyntheticSplit(nTrain, nTest, classes int, shape []int, noise float64, seed uint64) (train, test *InMemoryDataset) {
	return training.SyntheticSplit(nTrain, nTest, classes, shape, float32(noise), seed)
}

// ShuffleSampler yields batches in a fresh random order every epoch.
func ShuffleSampler(d Dataset, batch int, seed uint64) Sampler {
	return training.NewShuffleSampler(d, batch, seed)
}

// SequentialSampler yields batches in dataset order.
func SequentialSampler(d Dataset, batch int) Sampler {
	return training.NewSequentialSampler(d, batch)
}

// NewDriver binds a three-step optimizer to the session's open model and
// switches the executor into training mode. The returned Driver satisfies
// Optimizer and is what the distributed schemes in internal/dist wrap.
func (s *Session) NewDriver(ts ThreeStep) (*Driver, error) {
	if s.exec == nil {
		return nil, errNotOpen
	}
	if ts == nil {
		return nil, errors.New("d500: NewDriver requires an optimizer")
	}
	s.exec.SetTraining(true)
	return training.NewDriver(s.exec, ts), nil
}

// Trainer gives step-level control over a training run — a caller with
// its own step loop drives it batch by batch — while still routing
// observations through the session event stream.
type Trainer struct {
	s *Session
	r *training.Runner
}

// NewTrainer builds a runner over any Optimizer (a session Driver, or a
// distributed wrapper around one) with the session hook wired into the
// step/epoch callbacks. test may be nil.
func (s *Session) NewTrainer(opt Optimizer, train, test Sampler) (*Trainer, error) {
	if opt == nil {
		return nil, errors.New("d500: NewTrainer requires an optimizer")
	}
	if train == nil {
		return nil, errors.New("d500: NewTrainer requires a training sampler")
	}
	r := training.NewRunner(opt, train, test)
	r.AfterStep = func(step int, loss, acc float64) {
		s.emit(StepEnd{Step: step, Loss: loss, Accuracy: acc})
	}
	r.AfterEpoch = func(epoch int, testAcc float64) {
		s.emit(EpochEnd{Epoch: epoch, TestAccuracy: testAcc, LastLoss: r.LossCurve.Last()})
	}
	return &Trainer{s: s, r: r}, nil
}

// Step runs one optimization step on a batch and returns its loss.
func (t *Trainer) Step(ctx context.Context, b *Batch) (float64, error) { return t.r.Step(ctx, b) }

// TrainConfig parameterizes Session.Train.
type TrainConfig struct {
	// Optimizer is the three-step optimizer to drive (required).
	Optimizer ThreeStep
	// Train is the training sampler (required); Test enables per-epoch
	// evaluation (optional).
	Train, Test Sampler
	// Epochs defaults to 1.
	Epochs int
	// LossOutput / AccOutput override the model output names carrying the
	// loss and batch accuracy (defaults "loss", "acc").
	LossOutput, AccOutput string
	// TargetAccuracy, when positive, tracks time-to-accuracy against this
	// test-set target.
	TargetAccuracy float64
	// StopOnNaN aborts the run when the loss diverges.
	StopOnNaN bool
	// CheckpointPath enables exact-resume checkpointing: the run's state
	// (model weights, optimizer slots, sampler/RNG cursor) is written to this
	// path atomically at step or epoch boundaries (see WithCheckpointEvery),
	// on the training goroutine, plus once more when the run completes or is
	// cancelled between steps. Requires a checkpointable optimizer and
	// sampler (all built-ins are). Each durable write emits a
	// CheckpointSaved event; a write failure stops the run with that error.
	CheckpointPath string
	// Resume continues a run from a checkpoint loaded with d500.Resume. The
	// session must have Opened exactly Resume.Model(), and Optimizer/Train/
	// Test must be constructed with the original run's configuration —
	// optimizer slots, sampler cursor and step/epoch counters are restored
	// on top, after which the loss trajectory continues bitwise-identically
	// to the uninterrupted run.
	// Epochs still names the run's total epoch count: a run checkpointed
	// after epoch 2 of 5 resumes with Epochs: 5 and trains the remaining 3.
	Resume *Checkpoint
}

// TrainResult summarizes a completed training run.
type TrainResult struct {
	// Epochs and Steps actually executed.
	Epochs, Steps int
	// FinalLoss is the last recorded training loss.
	FinalLoss float64
	// FinalTestAccuracy / BestTestAccuracy are test-set metrics (zero
	// without a test sampler).
	FinalTestAccuracy, BestTestAccuracy float64
	// TargetReached and TimeToTarget report time-to-accuracy when
	// TrainConfig.TargetAccuracy was set.
	TargetReached bool
	TimeToTarget  time.Duration
	// Duration is the wall-clock time of the whole run.
	Duration time.Duration
}

// String renders the result as the summary block the binaries print.
func (r *TrainResult) String() string {
	return fmt.Sprintf("trained %d epochs (%d steps) in %s: final loss %.4f, test accuracy %.4f (best %.4f)",
		r.Epochs, r.Steps, fdur(r.Duration), r.FinalLoss, r.FinalTestAccuracy, r.BestTestAccuracy)
}

// Train runs a full training session over the open model: optimizer
// driver, runner, per-epoch evaluation, event emission and optional
// time-to-accuracy tracking. Cancelling ctx stops between steps and
// returns the context's error.
func (s *Session) Train(ctx context.Context, cfg TrainConfig) (*TrainResult, error) {
	if cfg.Optimizer == nil {
		return nil, errors.New("d500: TrainConfig.Optimizer is required")
	}
	if cfg.Train == nil {
		return nil, errors.New("d500: TrainConfig.Train sampler is required")
	}
	d, err := s.NewDriver(cfg.Optimizer)
	if err != nil {
		return nil, err
	}
	// NewDriver switched the executor into training mode; a completed (or
	// cancelled) Train leaves the session ready for inference again.
	defer s.exec.SetTraining(false)
	if cfg.LossOutput != "" {
		d.Loss = cfg.LossOutput
	}
	t, err := s.NewTrainer(d, cfg.Train, cfg.Test)
	if err != nil {
		return nil, err
	}
	if cfg.LossOutput != "" {
		t.r.LossOutput = cfg.LossOutput
	}
	if cfg.AccOutput != "" {
		t.r.AccOutput = cfg.AccOutput
	}
	t.r.StopOnNaN = cfg.StopOnNaN
	var tta *metrics.TimeToAccuracy
	if cfg.TargetAccuracy > 0 {
		tta = metrics.NewTimeToAccuracy(cfg.TargetAccuracy)
		tta.Start()
		t.r.TTA = tta
	}
	if cfg.Resume != nil {
		if err := restoreCheckpoint(s, cfg, t.r, cfg.Resume); err != nil {
			return nil, err
		}
	}
	if cfg.CheckpointPath != "" {
		co, _, err := checkpointable(cfg)
		if err != nil {
			return nil, err
		}
		t.r.Checkpoint = &training.Checkpointing{Path: cfg.CheckpointPath, Every: s.cfg.ckptEvery, Opt: co,
			Saved: func(step, epoch int) {
				s.emit(CheckpointSaved{Step: step, Epoch: epoch, Path: cfg.CheckpointPath})
			}}
	}
	runCtx := ctx
	if runCtx == nil {
		runCtx = context.Background()
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	// The whole run is one trace: epoch, step and per-op spans nest under
	// this root, and the tail sampler retains slow or failed runs.
	var root *trace.Span
	if tr := s.tracer.raw(); tr.Enabled() {
		root = tr.StartRoot("train.run",
			trace.Int("epochs", epochs), trace.Bool("resumed", cfg.Resume != nil))
		runCtx = trace.NewContext(runCtx, root)
	}
	start := time.Now()
	runErr := t.r.RunEpochs(runCtx, epochs)
	root.SetError(runErr)
	root.End()
	if runErr != nil {
		return nil, runErr
	}
	res := &TrainResult{
		Epochs:    t.r.EpochsDone(),
		Steps:     t.r.Steps(),
		FinalLoss: t.r.LossCurve.Last(),
		Duration:  time.Since(start),
	}
	if cfg.Test != nil && t.r.TestAcc != nil {
		res.FinalTestAccuracy = t.r.TestAcc.Last()
		res.BestTestAccuracy = t.r.TestAcc.Best()
	}
	if tta != nil {
		res.TargetReached, res.TimeToTarget = tta.Reached()
	}
	return res, nil
}
