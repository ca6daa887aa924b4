package training

import (
	"context"
	"math"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/models"
)

// TestEvaluateBetweenStepsLeavesTrainingBitwise drives the full Level 2
// training loop (Runner → Driver → executor) twice: once plainly, once
// evaluating the test set after every step. The evaluations are inference
// passes out of the executor's memory plans, at the batch shape the
// training steps run, and the training passes run out of a plan of their
// own over the same slab. The two runs must agree bit for bit: per-step
// losses, final parameters and final accuracy.
func TestEvaluateBetweenStepsLeavesTrainingBitwise(t *testing.T) {
	type result struct {
		losses []float64
		params [][]float32
		acc    float64
	}
	run := func(evalEveryStep bool) result {
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8,
			WithHead: true, Seed: 11}, 32)
		e := executor.MustNew(m)
		e.SetTraining(true)
		train, test := SyntheticSplit(256, 64, 4, []int{1, 8, 8}, 0.3, 23)
		r := NewRunner(NewDriver(e, NewMomentum(0.05, 0.9)),
			NewShuffleSampler(train, 32, 7), NewSequentialSampler(test, 32))
		var res result
		ctx := context.Background()
		r.AfterStep = func(_ int, loss, _ float64) {
			res.losses = append(res.losses, loss)
			if evalEveryStep {
				if _, err := r.Evaluate(ctx, r.TestSet); err != nil {
					t.Fatal(err)
				}
			}
		}
		for epoch := 0; epoch < 2; epoch++ {
			if _, err := r.RunEpoch(ctx); err != nil {
				t.Fatal(err)
			}
		}
		acc, err := r.Evaluate(ctx, r.TestSet)
		if err != nil {
			t.Fatal(err)
		}
		res.acc = acc
		for _, name := range e.Network().Params() {
			p, _ := e.Network().FetchTensor(name)
			res.params = append(res.params, append([]float32(nil), p.Data()...))
		}
		return res
	}

	ref, got := run(false), run(true)
	if len(got.losses) != len(ref.losses) || len(ref.losses) == 0 {
		t.Fatalf("%d steps vs %d", len(got.losses), len(ref.losses))
	}
	for i := range ref.losses {
		if math.Float64bits(ref.losses[i]) != math.Float64bits(got.losses[i]) {
			t.Fatalf("loss at step %d differs: %v vs %v", i, got.losses[i], ref.losses[i])
		}
	}
	for i := range ref.params {
		for j, v := range ref.params[i] {
			if math.Float32bits(v) != math.Float32bits(got.params[i][j]) {
				t.Fatalf("parameter %d element %d differs: %v vs %v", i, j, got.params[i][j], v)
			}
		}
	}
	if got.acc != ref.acc {
		t.Fatalf("final accuracy %v vs %v", got.acc, ref.acc)
	}
}
