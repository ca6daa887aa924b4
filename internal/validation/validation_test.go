package validation

import (
	"strings"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/ops"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

func TestForwardAgreement(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 8, 8)
	w := tensor.RandNormal(rng, 0, 0.3, 4, 3, 3, 3)
	res := TestForward(
		ops.NewConv2D(kernels.ConvWinograd, 1, 1, 1, 1),
		ops.NewConv2D(kernels.ConvDirect, 1, 1, 1, 1),
		[]*tensor.Tensor{x, w}, 1e-3)
	if !res.Passed {
		t.Fatalf("%v", res)
	}
	// A deliberately wrong operator must fail.
	bad := TestForward(ops.NewReLU(), ops.NewTanh(), []*tensor.Tensor{x}, 1e-3)
	if bad.Passed {
		t.Fatal("mismatched operators reported as passing")
	}
}

func TestGradientCheckPassesAndFails(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := tensor.RandNormal(rng, 0, 1, 3, 4)
	b := tensor.RandNormal(rng, 0, 1, 4, 2)
	res := TestGradient(ops.NewMatMul(),
		[]*tensor.Tensor{a, b}, []bool{true, true}, GradientCheckConfig{})
	if !res.Passed {
		t.Fatalf("%v", res)
	}
	// An operator with a broken backward must fail.
	res = TestGradient(&brokenGrad{}, []*tensor.Tensor{a.Clone()}, []bool{true}, GradientCheckConfig{})
	if res.Passed {
		t.Fatal("broken gradient passed validation")
	}
}

// brokenGrad returns forward = 2x but claims gradient 5.
type brokenGrad struct{}

func (b *brokenGrad) Name() string { return "broken" }
func (b *brokenGrad) Forward(in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.Map(in[0], func(v float32) float32 { return 2 * v })}
}
func (b *brokenGrad) Backward(g, in, out []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.Map(g[0], func(v float32) float32 { return 5 * v })}
}
func (b *brokenGrad) FLOPs(in []*tensor.Tensor) int64 { return 0 }

func lenetPair(t *testing.T) (*executor.Executor, *executor.Executor, map[string]*tensor.Tensor) {
	t.Helper()
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 4}
	m1 := models.LeNet(cfg)
	m2 := models.LeNet(cfg) // same seed ⇒ same weights
	e1, e2 := executor.MustNew(m1), executor.MustNew(m2)
	rng := tensor.NewRNG(5)
	feeds := map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(rng, 0, 1, 2, 1, 28, 28),
		"labels": tensor.From([]float32{1, 7}, 2),
	}
	return e1, e2, feeds
}

func TestExecutorComparison(t *testing.T) {
	e1, e2, feeds := lenetPair(t)
	res := TestExecutor(e1, e2, feeds, 1e-5)
	if !res.Passed {
		t.Fatalf("%v", res)
	}
	res = TestExecutorBackprop(e1, e2, feeds, "loss", 1e-4)
	if !res.Passed {
		t.Fatalf("%v", res)
	}
}

func TestExecutorComparisonDetectsDifference(t *testing.T) {
	e1, e2, feeds := lenetPair(t)
	// Corrupt one weight of e2.
	name := e2.Network().Params()[0]
	w, _ := e2.Network().FetchTensor(name)
	for i := range w.Data() {
		w.Data()[i] += 0.5
	}
	res := TestExecutor(e1, e2, feeds, 1e-6)
	if res.Passed {
		t.Fatal("difference not detected")
	}
}

func TestOptimizerTrajectory(t *testing.T) {
	mk := func() training.Optimizer {
		m := models.MLP(models.Config{Classes: 3, Channels: 1, Height: 2, Width: 2, WithHead: true, Seed: 6}, 8)
		e := executor.MustNew(m)
		e.SetTraining(true)
		return training.NewDriver(e, training.NewAdam(0.01))
	}
	ds, _ := training.SyntheticSplit(64, 16, 3, []int{1, 2, 2}, 0.2, 7)
	s := training.NewSequentialSampler(ds, 16)
	var batches []*training.Batch
	for b := s.Next(); b != nil; b = s.Next() {
		batches = append(batches, b)
	}
	res, traj := TestOptimizer(mk(), mk(), batches, 1e-6)
	if !res.Passed {
		t.Fatalf("identical optimizers diverged: %v", res)
	}
	if len(traj) != len(batches) {
		t.Fatal("trajectory length")
	}
	// Different formulations must diverge measurably.
	mkVar := func(v training.AdamVariant) training.Optimizer {
		m := models.MLP(models.Config{Classes: 3, Channels: 1, Height: 2, Width: 2, WithHead: true, Seed: 6}, 8)
		e := executor.MustNew(m)
		e.SetTraining(true)
		return training.NewDriver(e, training.NewAdamVariant(0.01, v))
	}
	res2, traj2 := TestOptimizer(mkVar(training.AdamEpsInside), mkVar(training.AdamReference), batches, 1e-12)
	if res2.Passed {
		t.Fatal("variant optimizers unexpectedly identical")
	}
	if traj2[len(traj2)-1].L2 <= traj2[0].L2 {
		t.Fatal("divergence not growing")
	}
}

func TestSamplerValidation(t *testing.T) {
	ds := training.SyntheticClassification(100, 4, []int{2}, 0.1, 8)
	res, bias := TestSampler(training.NewSequentialSampler(ds, 10), 0.05)
	if !res.Passed {
		t.Fatalf("%v", res)
	}
	if len(bias.Histogram()) != 4 {
		t.Fatal("histogram incomplete")
	}
}

func TestTrainingConvergence(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: 9}, 32)
	e := executor.MustNew(m)
	e.SetTraining(true)
	train, test := training.SyntheticSplit(256, 64, 4, []int{1, 4, 4}, 0.3, 10)
	report, err := TestTraining(
		training.NewDriver(e, training.NewMomentum(0.05, 0.9)),
		training.NewShuffleSampler(train, 32, 1),
		training.NewSequentialSampler(test, 32),
		4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Converged {
		t.Fatalf("did not converge: %+v", report)
	}
	if len(report.EpochLosses) != 4 || report.EpochLosses[3] >= report.EpochLosses[0] {
		t.Fatalf("loss not decreasing: %v", report.EpochLosses)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Name: "x", Passed: false, MaxErr: 0.5, Details: "boom"}
	s := r.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "boom") {
		t.Fatalf("%q", s)
	}
}

func TestSamplerValidationSharded(t *testing.T) {
	ds := training.SyntheticClassification(120, 4, []int{2}, 0.1, 8)
	res, bias := TestSampler(training.NewShardSampler(ds, 10, 1, 3, 5), 0.5)
	if !res.Passed {
		t.Fatalf("%v", res)
	}
	if len(bias.Histogram()) != 4 {
		t.Fatalf("histogram %v: a sharded sampler's labels were not counted", bias.Histogram())
	}
}
