package core

import (
	"deep500/internal/executor"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/ops"
	"deep500/internal/tensor"
	"deep500/internal/training"
	"deep500/internal/validation"
)

// RunValidationSuite exercises every validation procedure of the paper
// (§III-E, §IV "Validation" subsections) across the stack and returns one
// row per check: Level 0 forward/gradient tests on representative
// operators, Level 1 executor (and backprop) equivalence across backends,
// Level 2 optimizer-trajectory and sampler-bias tests, and Level 2/3
// training convergence.
func RunValidationSuite(o Options) ([]validation.Result, error) {
	rng := tensor.NewRNG(o.seed())
	var results []validation.Result

	// Level 0: forward agreement of conv algorithms, gradient checks.
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 8, 8)
	w := tensor.RandNormal(rng, 0, 0.3, 4, 3, 3, 3)
	results = append(results, validation.TestForward(
		ops.NewConv2D(kernels.ConvWinograd, 1, 1, 1, 1),
		ops.NewConv2D(kernels.ConvDirect, 1, 1, 1, 1),
		[]*tensor.Tensor{x, w}, 1e-3))
	gradOps := []struct {
		name   string
		op     ops.Operator
		inputs []*tensor.Tensor
		check  []bool
	}{
		{"conv", ops.NewConv2D(kernels.ConvIm2Col, 1, 1, 1, 1),
			[]*tensor.Tensor{x.Clone(), w.Clone()}, []bool{true, true}},
		{"gemm", ops.NewGemm(false, false),
			[]*tensor.Tensor{tensor.RandNormal(rng, 0, 1, 4, 5), tensor.RandNormal(rng, 0, 1, 5, 3)},
			[]bool{true, true}},
		{"rnn", ops.NewRNNTanhCell(), []*tensor.Tensor{
			tensor.RandNormal(rng, 0, 1, 2, 3), tensor.RandNormal(rng, 0, 0.5, 2, 4),
			tensor.RandNormal(rng, 0, 0.4, 3, 4), tensor.RandNormal(rng, 0, 0.4, 4, 4),
			tensor.RandNormal(rng, 0, 0.1, 4)},
			[]bool{true, true, true, true, true}},
		{"softmax", ops.NewSoftmax(), []*tensor.Tensor{tensor.RandNormal(rng, 0, 1, 3, 5)}, []bool{true}},
	}
	for _, g := range gradOps {
		results = append(results, validation.TestGradient(g.op, g.inputs, g.check, validation.GradientCheckConfig{}))
	}

	// Level 1: executors on identical models must agree.
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: o.seed()}
	e1 := executor.MustNew(models.LeNet(cfg))
	e2 := executor.MustNew(models.LeNet(cfg))
	feeds := map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(rng, 0, 1, 2, 1, 28, 28),
		"labels": tensor.From([]float32{1, 7}, 2),
	}
	results = append(results, validation.TestExecutor(e1, e2, feeds, 1e-5))
	results = append(results, validation.TestExecutorBackprop(e1, e2, feeds, "loss", 1e-4))

	// Level 2: optimizer trajectory (fused vs reference Adam must agree),
	// sampler bias, training convergence.
	mk := func(ts training.ThreeStep) training.Optimizer {
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: o.seed()}, 32)
		e := executor.MustNew(m)
		e.SetTraining(true)
		return training.NewDriver(e, ts)
	}
	ds, testDS := training.SyntheticSplit(256, 64, 4, []int{1, 4, 4}, 0.3, o.seed())
	s := training.NewSequentialSampler(ds, 32)
	var batches []*training.Batch
	for i := 0; i < 5; i++ {
		batches = append(batches, s.Next())
	}
	trajRes, _ := validation.TestOptimizer(mk(training.NewFusedAdam(0.01)), mk(training.NewAdam(0.01)), batches, 1e-3)
	results = append(results, trajRes)

	sampRes, _ := validation.TestSampler(training.NewSequentialSampler(ds, 32), 0.05)
	results = append(results, sampRes)

	report, err := validation.TestTraining(mk(training.NewFusedMomentum(0.05, 0.9)),
		training.NewShuffleSampler(ds, 32, o.seed()),
		training.NewSequentialSampler(testDS, 32), 4, 0.85)
	if err != nil {
		return results, err
	}
	trainRes := validation.Result{Name: "test_training", Passed: report.Converged}
	if !report.Converged {
		trainRes.Details = "did not reach target accuracy"
	}
	results = append(results, trainRes)
	return results, nil
}
