package d500

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/models"
)

// Exact-resume acceptance tests: a training run killed mid-epoch and
// resumed from its checkpoint must reproduce the uninterrupted run's
// per-step loss trajectory bitwise.

const (
	resumeSeed    = 21
	resumeBatch   = 16
	resumeSamples = 64 // 4 steps per epoch
	resumeEpochs  = 3
)

// resumeModel builds the run's model fresh — Seed pins the initializer
// draw, so every run starts from identical weights.
func resumeModel() *graph.Model {
	return models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: 7}, 8)
}

// trainRun executes one training run and returns the per-step losses
// keyed by global step number. cancelAt > 0 cancels the run from the
// AfterStep hook at that step; ckptPath/ckptEvery enable checkpointing;
// cp resumes from a checkpoint.
func trainRun(t *testing.T, cancelAt int, ckptPath string, ckptEvery int, cp *Checkpoint) (map[int]float64, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	losses := make(map[int]float64)
	saved := 0
	hook := func(e Event) {
		switch ev := e.(type) {
		case StepEnd:
			losses[ev.Step] = ev.Loss
			if cancelAt > 0 && ev.Step == cancelAt {
				cancel()
			}
		case CheckpointSaved:
			saved++
		}
	}

	opts := []Option{WithSeed(11), WithHook(hook)}
	if ckptEvery > 0 {
		opts = append(opts, WithCheckpointEvery(ckptEvery))
	}
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		if err := sess.Open(cp.Model()); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := sess.Open(resumeModel()); err != nil {
			t.Fatal(err)
		}
	}

	// Dataset, sampler and optimizer are reconstructed identically for every
	// run — exactly what a resumed binary does from its flags.
	train, test := SyntheticSplit(resumeSamples, resumeSamples/4, 4, []int{1, 4, 4}, 0.3, resumeSeed)
	_, err = sess.Train(ctx, TrainConfig{
		Optimizer:      Adam(0.01),
		Train:          ShuffleSampler(train, resumeBatch, resumeSeed),
		Test:           SequentialSampler(test, resumeBatch),
		Epochs:         resumeEpochs,
		CheckpointPath: ckptPath,
		Resume:         cp,
	})
	if ckptPath != "" && err == nil && saved == 0 {
		t.Fatal("checkpointing run emitted no CheckpointSaved event")
	}
	return losses, err
}

// TestResumeExactTrajectory is the tentpole acceptance test: kill a
// checkpointing run mid-epoch, resume it, and require every post-resume
// step loss to be bitwise-equal to the uninterrupted run's.
func TestResumeExactTrajectory(t *testing.T) {
	// Reference: uninterrupted 3-epoch run (12 steps).
	want, err := trainRun(t, 0, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != resumeEpochs*resumeSamples/resumeBatch {
		t.Fatalf("reference run took %d steps, want %d", len(want), resumeEpochs*resumeSamples/resumeBatch)
	}

	// Interrupted run: checkpoints every 3 steps, killed at step 5 (epoch 2,
	// step 1 — mid-epoch). The synchronous final checkpoint captures step 5.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const killAt = 5
	got, err := trainRun(t, killAt, path, 3, nil)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	for step := 1; step <= killAt; step++ {
		if math.Float64bits(got[step]) != math.Float64bits(want[step]) {
			t.Fatalf("pre-kill divergence at step %d: %v vs %v (training is not deterministic)",
				step, got[step], want[step])
		}
	}

	cp, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step() != killAt {
		t.Fatalf("checkpoint at step %d, want %d (final synchronous write)", cp.Step(), killAt)
	}
	if cp.EpochsDone() != 1 {
		t.Fatalf("checkpoint EpochsDone = %d, want 1", cp.EpochsDone())
	}

	resumed, err := trainRun(t, 0, "", 0, cp)
	if err != nil {
		t.Fatal(err)
	}
	for step := killAt + 1; step <= len(want); step++ {
		g, ok := resumed[step]
		if !ok {
			t.Fatalf("resumed run never reached step %d", step)
		}
		if math.Float64bits(g) != math.Float64bits(want[step]) {
			t.Fatalf("post-resume divergence at step %d: %v vs %v", step, g, want[step])
		}
	}
	for step := 1; step <= killAt; step++ {
		if _, ok := resumed[step]; ok {
			t.Fatalf("resumed run re-ran step %d", step)
		}
	}
}

// TestResumeEpochBoundary: a run that completes normally checkpoints its
// end state with MidEpoch=false; resuming it with a larger epoch budget
// trains exactly the additional epochs, matching a longer uninterrupted
// run bitwise.
func TestResumeEpochBoundary(t *testing.T) {
	// Reference: 3 uninterrupted epochs.
	want, err := trainRun(t, 0, "", 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpointing run with a smaller budget: 2 epochs to completion, so
	// the final synchronous checkpoint lands exactly on the epoch boundary.
	path := filepath.Join(t.TempDir(), "boundary.ckpt")
	ctx := context.Background()
	sess, err := New(WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(resumeModel()); err != nil {
		t.Fatal(err)
	}
	train, test := SyntheticSplit(resumeSamples, resumeSamples/4, 4, []int{1, 4, 4}, 0.3, resumeSeed)
	if _, err := sess.Train(ctx, TrainConfig{
		Optimizer:      Adam(0.01),
		Train:          ShuffleSampler(train, resumeBatch, resumeSeed),
		Test:           SequentialSampler(test, resumeBatch),
		Epochs:         2,
		CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}

	cp, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.EpochsDone() != 2 {
		t.Fatalf("EpochsDone = %d, want 2", cp.EpochsDone())
	}
	stepsPerEpoch := resumeSamples / resumeBatch
	if cp.Step() != 2*stepsPerEpoch {
		t.Fatalf("Step = %d, want %d", cp.Step(), 2*stepsPerEpoch)
	}

	resumed, err := trainRun(t, 0, "", 0, cp)
	if err != nil {
		t.Fatal(err)
	}
	for step := 2*stepsPerEpoch + 1; step <= 3*stepsPerEpoch; step++ {
		if math.Float64bits(resumed[step]) != math.Float64bits(want[step]) {
			t.Fatalf("boundary-resume divergence at step %d: %v vs %v", step, resumed[step], want[step])
		}
	}
}

// TestResumeValidation covers the typed failure modes of the resume path.
func TestResumeValidation(t *testing.T) {
	if _, err := Resume(""); err == nil {
		t.Fatal("Resume(\"\") must fail")
	}
	if _, err := Resume(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("Resume of a missing file must fail")
	}

	// A plain Session.Save file is not a training checkpoint.
	sess, err := New(WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(resumeModel()); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(t.TempDir(), "plain.d5nx")
	if err := sess.Save(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(plain); err == nil {
		t.Fatal("Resume of a plain model file must fail")
	}

	// Resuming onto a session whose open model is not the checkpoint's is a
	// typed error, not silent weight corruption.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := trainRun(t, 2, path, 1, nil); err == nil {
		t.Fatal("cancelled run reported success")
	}
	cp, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := SyntheticSplit(resumeSamples, resumeSamples/4, 4, []int{1, 4, 4}, 0.3, resumeSeed)
	if _, err := sess.Train(context.Background(), TrainConfig{
		Optimizer: Adam(0.01),
		Train:     ShuffleSampler(train, resumeBatch, resumeSeed),
		Epochs:    1,
		Resume:    cp,
	}); err == nil {
		t.Fatal("resume onto a different open model must fail")
	}
}

// checkpointRun trains a fresh two-epoch run that checkpoints to path
// (every > 0 sets WithCheckpointEvery) and returns its StepEnd and
// CheckpointSaved events in delivery order.
func checkpointRun(t *testing.T, path string, every int) ([]Event, error) {
	t.Helper()
	var events []Event
	opts := []Option{WithSeed(11), WithHook(func(e Event) {
		switch e.(type) {
		case StepEnd, CheckpointSaved:
			events = append(events, e)
		}
	})}
	if every > 0 {
		opts = append(opts, WithCheckpointEvery(every))
	}
	sess, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Open(resumeModel()); err != nil {
		t.Fatal(err)
	}
	train, _ := SyntheticSplit(resumeSamples, resumeSamples/4, 4, []int{1, 4, 4}, 0.3, resumeSeed)
	_, err = sess.Train(context.Background(), TrainConfig{
		Optimizer:      Adam(0.01),
		Train:          ShuffleSampler(train, resumeBatch, resumeSeed),
		Epochs:         2,
		CheckpointPath: path,
	})
	return events, err
}

// TestCheckpointEveryStep: with WithCheckpointEvery(1) each step is written
// exactly once, in step order, and its CheckpointSaved arrives before its
// StepEnd — a hook that stops the run there finds the step on disk.
func TestCheckpointEveryStep(t *testing.T) {
	events, err := checkpointRun(t, filepath.Join(t.TempDir(), "run.ckpt"), 1)
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := resumeSamples / resumeBatch
	if len(events) != 2*2*perEpoch {
		t.Fatalf("%d events for %d steps, want a CheckpointSaved and a StepEnd each: %v", len(events), 2*perEpoch, events)
	}
	for i := 0; i < 2*perEpoch; i++ {
		ck, ok := events[2*i].(CheckpointSaved)
		if !ok || ck.Step != i+1 || ck.Epoch != i/perEpoch {
			t.Fatalf("event %d is %+v, want CheckpointSaved of step %d in epoch %d", 2*i, events[2*i], i+1, i/perEpoch)
		}
		if se, ok := events[2*i+1].(StepEnd); !ok || se.Step != i+1 {
			t.Fatalf("event %d is %+v, want StepEnd of step %d", 2*i+1, events[2*i+1], i+1)
		}
	}
}

// TestCheckpointWriteErrorStopsTrain: a checkpoint path that cannot be
// written makes Train return the write error, and no step after the one
// whose write failed is reported (nor, with a step cadence, that step).
func TestCheckpointWriteErrorStopsTrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "run.ckpt")
	perEpoch := resumeSamples / resumeBatch
	for _, c := range []struct{ every, lastStep int }{{1, 0}, {0, perEpoch}} {
		events, err := checkpointRun(t, path, c.every)
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("every=%d: Train returned %v, want the write error", c.every, err)
		}
		last := 0
		for _, e := range events {
			if se, ok := e.(StepEnd); ok {
				last = se.Step
			} else {
				t.Fatalf("every=%d: unexpected %+v", c.every, e)
			}
		}
		if last != c.lastStep {
			t.Fatalf("every=%d: last StepEnd at step %d, want %d", c.every, last, c.lastStep)
		}
	}
}
