// Package validation implements the Deep500 validation procedures attached
// to each level (paper §III-E, §IV): operator forward/gradient checking via
// numerical differentiation, executor output comparison, optimizer
// trajectory comparison, sampler bias testing, and end-to-end training
// convergence testing. Results carry the paper's accuracy metrics — ℓ1, ℓ2
// and ℓ∞ norms, max error, variance and heatmaps.
package validation

import (
	"context"
	"fmt"
	"math"

	"deep500/internal/executor"
	"deep500/internal/metrics"
	"deep500/internal/ops"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// Result is the outcome of a validation procedure.
type Result struct {
	Name    string
	Passed  bool
	MaxErr  float64
	Norms   tensor.DiffNorms
	Details string
}

func (r Result) String() string {
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	return fmt.Sprintf("[%s] %s: max err %.3g (l1=%.3g l2=%.3g linf=%.3g) %s",
		status, r.Name, r.MaxErr, r.Norms.L1, r.Norms.L2, r.Norms.LInf, r.Details)
}

// TestForward compares an operator's outputs against a reference operator
// on the same inputs (Level 0 test_forward). tol is the allowed ℓ∞
// difference.
func TestForward(op, ref ops.Operator, inputs []*tensor.Tensor, tol float64) Result {
	got := op.Forward(inputs)
	want := ref.Forward(inputs)
	res := Result{Name: "test_forward:" + op.Name(), Passed: true}
	if len(got) != len(want) {
		res.Passed = false
		res.Details = fmt.Sprintf("output count %d vs %d", len(got), len(want))
		return res
	}
	for i := range got {
		d := tensor.Compare(got[i], want[i])
		if d.LInf > res.MaxErr {
			res.MaxErr = d.LInf
			res.Norms = d
		}
	}
	if res.MaxErr > tol {
		res.Passed = false
		res.Details = fmt.Sprintf("exceeds tol %g", tol)
	}
	return res
}

// GradientCheckConfig tunes numerical differentiation.
type GradientCheckConfig struct {
	// Eps is the central-difference step (default 1e-2; fp32 arithmetic
	// needs a large step).
	Eps float64
	// Tol is the allowed absolute-or-5%-relative error (default 5e-3).
	Tol float64
	// MaxProbes bounds how many elements per input are probed (0 = 32).
	MaxProbes int
	// Seed drives the random output projection.
	Seed uint64
}

func (c *GradientCheckConfig) defaults() {
	if c.Eps == 0 {
		c.Eps = 1e-2
	}
	if c.Tol == 0 {
		c.Tol = 5e-3
	}
	if c.MaxProbes == 0 {
		c.MaxProbes = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// TestGradient verifies op.Backward against a numerical Jacobian-vector
// product (Level 0 test_gradient: "numerical differentiation with finite
// differences"). checkInputs marks which inputs must be verified.
func TestGradient(op ops.Operator, inputs []*tensor.Tensor, checkInputs []bool, cfg GradientCheckConfig) Result {
	cfg.defaults()
	rng := tensor.NewRNG(cfg.Seed)
	res := Result{Name: "test_gradient:" + op.Name(), Passed: true}

	outs := op.Forward(inputs)
	weights := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		weights[i] = tensor.RandUniform(rng, -1, 1, o.Shape()...)
	}
	loss := func() float64 {
		os := op.Forward(inputs)
		var l float64
		for i, o := range os {
			l += tensor.Dot(o, weights[i])
		}
		return l
	}
	outs = op.Forward(inputs) // refresh cached state
	grads := op.Backward(weights, inputs, outs)

	for gi, check := range checkInputs {
		if !check {
			continue
		}
		if gi >= len(grads) || grads[gi] == nil {
			res.Passed = false
			res.Details = fmt.Sprintf("input %d: missing gradient", gi)
			return res
		}
		data := inputs[gi].Data()
		stride := len(data)/cfg.MaxProbes + 1
		for i := 0; i < len(data); i += stride {
			orig := data[i]
			data[i] = orig + float32(cfg.Eps)
			lp := loss()
			data[i] = orig - float32(cfg.Eps)
			lm := loss()
			data[i] = orig
			num := (lp - lm) / (2 * cfg.Eps)
			got := float64(grads[gi].Data()[i])
			diff := math.Abs(num - got)
			if diff > res.MaxErr {
				res.MaxErr = diff
			}
			scale := math.Max(math.Abs(num), math.Abs(got))
			if diff > cfg.Tol && diff > 0.05*scale {
				res.Passed = false
				res.Details = fmt.Sprintf("input %d elem %d: analytic %.4g vs numeric %.4g", gi, i, got, num)
			}
		}
	}
	return res
}

// TestExecutor compares the outputs of two executors on the same feeds
// (Level 1 test_executor). Outputs present in only one executor fail.
func TestExecutor(got, ref executor.GraphExecutor, feeds map[string]*tensor.Tensor, tol float64) Result {
	res := Result{Name: "test_executor", Passed: true}
	g, err := got.Inference(context.Background(), cloneFeeds(feeds))
	if err != nil {
		return Result{Name: res.Name, Details: "executor error: " + err.Error()}
	}
	w, err := ref.Inference(context.Background(), cloneFeeds(feeds))
	if err != nil {
		return Result{Name: res.Name, Details: "reference error: " + err.Error()}
	}
	for name, wt := range w {
		gt, ok := g[name]
		if !ok {
			res.Passed = false
			res.Details = fmt.Sprintf("output %q missing", name)
			return res
		}
		d := tensor.Compare(gt, wt)
		if d.LInf > res.MaxErr {
			res.MaxErr = d.LInf
			res.Norms = d
		}
	}
	if res.MaxErr > tol {
		res.Passed = false
		res.Details = fmt.Sprintf("exceeds tol %g", tol)
	}
	return res
}

// TestExecutorBackprop compares parameter gradients of two executors after
// a backward pass from the same loss (Level 1 test_executor_backprop).
func TestExecutorBackprop(got, ref executor.GraphExecutor, feeds map[string]*tensor.Tensor, loss string, tol float64) Result {
	res := Result{Name: "test_executor_backprop", Passed: true}
	if _, err := got.InferenceAndBackprop(context.Background(), cloneFeeds(feeds), loss); err != nil {
		return Result{Name: res.Name, Details: "executor error: " + err.Error()}
	}
	if _, err := ref.InferenceAndBackprop(context.Background(), cloneFeeds(feeds), loss); err != nil {
		return Result{Name: res.Name, Details: "reference error: " + err.Error()}
	}
	refGrads := ref.Network().Gradients()
	if len(refGrads) == 0 {
		return Result{Name: res.Name, Details: "reference produced no gradients"}
	}
	for _, pg := range refGrads {
		gt := got.Network().Gradient(pg.Name)
		if gt == nil {
			res.Passed = false
			res.Details = fmt.Sprintf("gradient %q missing", pg.Name)
			return res
		}
		d := tensor.Compare(gt, pg.Grad)
		if d.LInf > res.MaxErr {
			res.MaxErr = d.LInf
			res.Norms = d
		}
	}
	if res.MaxErr > tol {
		res.Passed = false
		res.Details = fmt.Sprintf("exceeds tol %g", tol)
	}
	return res
}

// TrajectoryPoint records the per-step parameter divergence of two
// optimizers (the data behind the paper's Fig. 11); TestOptimizer's i-th
// point is step i+1.
type TrajectoryPoint struct {
	L2, LInf float64
	PerParam map[string]tensor.DiffNorms
}

// TestOptimizer runs two optimizers side by side on identical batches and
// records parameter divergence per step (Level 2 test_optimizer: "ensuring
// that an optimizer trajectory does not diverge from the Deep500 one").
// It fails if the final total ℓ2 divergence exceeds tol.
func TestOptimizer(got, ref training.Optimizer, batches []*training.Batch, tol float64) (Result, []TrajectoryPoint) {
	res := Result{Name: "test_optimizer", Passed: true}
	var traj []TrajectoryPoint
	for _, b := range batches {
		if _, err := got.Train(context.Background(), b.Feeds()); err != nil {
			return Result{Name: res.Name, Details: err.Error()}, traj
		}
		if _, err := ref.Train(context.Background(), b.Feeds()); err != nil {
			return Result{Name: res.Name, Details: err.Error()}, traj
		}
		pt := TrajectoryPoint{PerParam: make(map[string]tensor.DiffNorms)}
		for _, name := range ref.Executor().Network().Params() {
			pr, err1 := ref.Executor().Network().FetchTensor(name)
			pg, err2 := got.Executor().Network().FetchTensor(name)
			if err1 != nil || err2 != nil {
				continue
			}
			d := tensor.Compare(pg, pr)
			pt.PerParam[name] = d
			pt.L2 += d.L2
			if d.LInf > pt.LInf {
				pt.LInf = d.LInf
			}
		}
		traj = append(traj, pt)
	}
	if len(traj) > 0 {
		last := traj[len(traj)-1]
		res.MaxErr = last.LInf
		if last.L2 > tol {
			res.Passed = false
			res.Details = fmt.Sprintf("final l2 divergence %.4g exceeds tol %g", last.L2, tol)
		}
	}
	return res, traj
}

// TestSampler validates a dataset sampler with the DatasetBias metric
// (Level 2 test_sampler): one epoch must visit labels within tolFraction
// of uniform.
func TestSampler(s training.Sampler, tolFraction float64) (Result, *metrics.DatasetBias) {
	bias := metrics.NewDatasetBias()
	type biasAttacher interface{ AttachBias(*metrics.DatasetBias) }
	if ba, ok := s.(biasAttacher); ok {
		ba.AttachBias(bias)
	}
	s.Reset()
	for b := s.Next(); b != nil; b = s.Next() {
		_ = b
	}
	res := Result{Name: "test_sampler", Passed: true}
	hist := bias.Histogram()
	if len(hist) == 0 {
		res.Details = "sampler does not support bias attachment"
		return res, bias
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	expected := float64(total) / float64(len(hist))
	for label, c := range hist {
		dev := math.Abs(float64(c)-expected) / expected
		if dev > tolFraction {
			res.Passed = false
			res.Details = fmt.Sprintf("label %d count %d deviates %.1f%% from uniform", label, c, dev*100)
		}
	}
	res.MaxErr = bias.ChiSquare()
	return res, bias
}

// TrainingReport is the outcome of TestTraining.
type TrainingReport struct {
	FinalTestAccuracy float64
	EpochLosses       []float64 // the last is the final loss
	Converged         bool
}

// TestTraining runs a full training session and validates convergence
// (Level 2/3 test_training: "tests the convergence, performance, and the
// related tradeoff of the overall training"). The same call validates
// distributed optimizers, which implement the same Optimizer interface.
func TestTraining(opt training.Optimizer, train, test training.Sampler, epochs int, targetAcc float64) (TrainingReport, error) {
	r := training.NewRunner(opt, train, test)
	var report TrainingReport
	r.AfterEpoch = func(epoch int, testAcc float64) {
		report.FinalTestAccuracy = testAcc
	}
	for e := 0; e < epochs; e++ {
		loss, err := r.RunEpoch(context.Background())
		if err != nil {
			return report, err
		}
		report.EpochLosses = append(report.EpochLosses, loss)
		if test != nil {
			acc, err := r.Evaluate(context.Background(), test)
			if err != nil {
				return report, err
			}
			report.FinalTestAccuracy = acc
		}
	}
	report.Converged = report.FinalTestAccuracy >= targetAcc
	return report, nil
}

func cloneFeeds(feeds map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(feeds))
	for k, v := range feeds {
		out[k] = v.Clone()
	}
	return out
}
