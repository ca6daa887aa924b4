package training

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
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

// failAt makes the nth Train call of the optimizer it wraps fail.
type failAt struct {
	Optimizer
	n, calls int
}

func (f *failAt) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	if f.calls++; f.calls == f.n {
		return nil, errors.New("injected step failure")
	}
	return f.Optimizer.Train(ctx, feeds)
}

// TestRunnerCheckpointStops pins where a checkpointing run's last write
// lands: a failed step leaves the last cadence checkpoint standing, and a
// cancellation between steps writes the step it stopped after.
func TestRunnerCheckpointStops(t *testing.T) {
	run := func(r *Runner, ctx context.Context) (saved []int, ts *graph.TrainState, err error) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		r.Checkpoint = &Checkpointing{Path: path, Every: 2,
			Saved: func(step, _ int) { saved = append(saved, step) }}
		err = r.RunEpochs(ctx, 5)
		if ck, lerr := graph.LoadCheckpoint(path); lerr == nil {
			ts = ck.Train
		}
		return saved, ts, err
	}

	r := cancelRunner(t)
	r.Opt = &failAt{Optimizer: r.Opt, n: 4}
	saved, ts, err := run(r, context.Background())
	if err == nil || err.Error() != "injected step failure" {
		t.Fatalf("want the step's error, got %v", err)
	}
	if len(saved) != 1 || saved[0] != 2 || ts == nil || ts.Step != 2 || !ts.MidEpoch {
		t.Fatalf("after a failed step 4: writes %v, checkpoint %+v; want step 2's alone", saved, ts)
	}

	r = cancelRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.AfterStep = func(step int, _, _ float64) {
		if step == 3 {
			cancel()
		}
	}
	saved, ts, err = run(r, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(saved) != 2 || saved[1] != 3 || ts == nil || ts.Step != 3 || !ts.MidEpoch || ts.EpochsDone != 0 {
		t.Fatalf("cancelled after step 3: writes %v, checkpoint %+v; want steps 2 and 3, mid-epoch", saved, ts)
	}
}
