package training

import (
	"context"
	"errors"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/models"
)

func cancelRunner(t *testing.T) *Runner {
	t.Helper()
	cfg := models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 3}
	e := executor.MustNew(models.MLP(cfg, 32))
	e.SetTraining(true)
	ds, _ := SyntheticSplit(256, 64, 4, []int{1, 8, 8}, 0.3, 3)
	return NewRunner(NewDriver(e, NewGradientDescent(0.05)), NewShuffleSampler(ds, 32, 3), nil)
}

func TestRunEpochsCancelMidEpoch(t *testing.T) {
	r := cancelRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps int
	r.AfterStep = func(step int, _, _ float64) {
		steps = step
		if step == 2 {
			cancel() // cancel mid-epoch, between steps
		}
	}
	err := r.RunEpochs(ctx, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if steps != 2 {
		t.Fatalf("training ran %d steps after cancellation (want stop right after step 2)", steps)
	}
}

func TestEvaluateReturnsInferenceError(t *testing.T) {
	r := cancelRunner(t)
	ds, _ := SyntheticSplit(64, 16, 4, []int{1, 8, 8}, 0.3, 4)
	// An already-cancelled context makes every inference fail: Evaluate
	// must surface that instead of reporting 0% accuracy.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Evaluate(ctx, NewSequentialSampler(ds, 16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from Evaluate, got %v", err)
	}
	// And a healthy evaluation still reports a real accuracy.
	acc, err := r.Evaluate(context.Background(), NewSequentialSampler(ds, 16))
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}
