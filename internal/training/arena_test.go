package training

import (
	"context"
	"math"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// TestRunnerArenaParity drives the full Level 2 training loop (Runner →
// Driver → executor) with and without the tensor arena and asserts the
// training trajectories coincide: same per-step losses, same final
// evaluation accuracy.
func TestRunnerArenaParity(t *testing.T) {
	mkRunner := func(opts ...executor.Option) (*Runner, *executor.Executor) {
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8,
			WithHead: true, Seed: 11}, 32)
		e := executor.MustNew(m, opts...)
		e.SetTraining(true)
		train, test := SyntheticSplit(256, 64, 4, []int{1, 8, 8}, 0.3, 23)
		r := NewRunner(NewDriver(e, NewMomentum(0.05, 0.9)),
			NewShuffleSampler(train, 32, 7),
			NewSequentialSampler(test, 32))
		return r, e
	}

	type result struct {
		losses []float64
		acc    float64
	}
	run := func(opts ...executor.Option) result {
		r, _ := mkRunner(opts...)
		var res result
		r.AfterStep = func(_ int, loss, _ float64) { res.losses = append(res.losses, loss) }
		for epoch := 0; epoch < 2; epoch++ {
			if _, err := r.RunEpoch(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		acc, err := r.Evaluate(context.Background(), r.TestSet)
		if err != nil {
			t.Fatal(err)
		}
		res.acc = acc
		return res
	}

	ref := run()
	got := run(executor.WithArena(tensor.NewArena()))
	if len(got.losses) != len(ref.losses) {
		t.Fatalf("%d steps vs %d", len(got.losses), len(ref.losses))
	}
	for i := range ref.losses {
		if d := math.Abs(ref.losses[i] - got.losses[i]); d > 1e-4 {
			t.Fatalf("loss at step %d diverges by %g (%g vs %g)", i, d, ref.losses[i], got.losses[i])
		}
	}
	if d := math.Abs(ref.acc - got.acc); d > 1e-9 {
		t.Fatalf("final accuracy %g vs %g", got.acc, ref.acc)
	}
}
