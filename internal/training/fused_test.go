package training

import (
	"context"
	"math"
	"runtime"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// optimizerTol is the final total ℓ2 parameter divergence the optimizer
// validation (validation.TestOptimizer as internal/core runs it) accepts
// between a candidate and its reference.
const optimizerTol = 1e-3

// embedded hides everything but the three ThreeStep methods, the way a
// caller's timing or logging wrapper does.
type embedded struct{ ThreeStep }

// rulePairs pairs every product rule with the composing reference form it
// replaced, under a decaying schedule where the rule takes one.
var rulePairs = func() []rulePair {
	// 0.05, halved every 7 steps.
	decay := Schedule(func(step int) float32 { return 0.05 * float32(math.Pow(0.5, float64(step/7))) })
	return []rulePair{
		{"sgd",
			func() ThreeStep { return &FusedSGD{LR: decay} },
			func() ThreeStep { return &GradientDescent{FusedSGD{LR: decay}} }},
		{"momentum",
			func() ThreeStep { o := NewFusedMomentum(0, 0.9); o.LR = decay; return o },
			func() ThreeStep { o := NewMomentum(0, 0.9); o.LR = decay; return o }},
		{"nesterov",
			func() ThreeStep { o := NewFusedNesterov(0, 0.9); o.LR = decay; return o },
			func() ThreeStep { o := NewNesterov(0, 0.9); o.LR = decay; return o }},
		{"adagrad",
			func() ThreeStep { return NewFusedAdaGrad(0.05) },
			func() ThreeStep { return NewAdaGrad(0.05) }},
		{"rmsprop",
			func() ThreeStep { return NewFusedRMSProp(0.005, 0.9) },
			func() ThreeStep { return NewRMSProp(0.005, 0.9) }},
		{"adam",
			func() ThreeStep { return NewFusedAdam(0.01) },
			func() ThreeStep { return NewAdam(0.01) }},
	}
}()

type rulePair struct {
	name       string
	fused, ref func() ThreeStep
}

// trainSteps drives d for n steps over train, wrapping around the epoch.
func trainSteps(t *testing.T, d *Driver, train Sampler, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := train.Next()
		if b == nil {
			train.Reset()
			b = train.Next()
		}
		if _, err := d.Train(context.Background(), b.Feeds()); err != nil {
			t.Fatal(err)
		}
	}
}

// paramDivergence is the total ℓ2 distance between two networks' parameters.
func paramDivergence(a, b *executor.Executor) float64 {
	var l2 float64
	for _, name := range a.Network().Params() {
		pa, _ := a.Network().FetchTensor(name)
		pb, _ := b.Network().FetchTensor(name)
		l2 += tensor.Compare(pa, pb).L2
	}
	return l2
}

// TestFusedMatchesReference runs every product rule against its reference
// form, 20 steps on identical batches. The first step must agree
// elementwise to rounding, the trajectories within the optimizer-validation
// tolerance, and the fused side — driven through a
// wrapper that only embeds ThreeStep — must never have swapped a parameter
// tensor: its updates are in place.
func TestFusedMatchesReference(t *testing.T) {
	for _, c := range rulePairs {
		t.Run(c.name, func(t *testing.T) {
			eF, eR := mlpExec(t, 9), mlpExec(t, 9)
			live, initial := make(map[string]*tensor.Tensor), make(map[string]*tensor.Tensor)
			for _, name := range eF.Network().Params() {
				live[name], _ = eF.Network().FetchTensor(name)
				initial[name] = live[name].Clone()
			}
			trainF, _ := synthSamplers(16)
			trainR, _ := synthSamplers(16)
			dF, dR := NewDriver(eF, embedded{c.fused()}), NewDriver(eR, c.ref())
			// One step is the same formulation evaluated once: it must agree
			// elementwise to rounding, far inside the trajectory tolerance.
			trainSteps(t, dF, trainF, 1)
			trainSteps(t, dR, trainR, 1)
			for name := range live {
				pF, _ := eF.Network().FetchTensor(name)
				pR, _ := eR.Network().FetchTensor(name)
				if !tensor.AllClose(pF, pR, 1e-5, 1e-6) {
					t.Fatalf("%s diverged after one step: Linf=%g", name, tensor.Compare(pF, pR).LInf)
				}
			}
			trainSteps(t, dF, trainF, 19)
			trainSteps(t, dR, trainR, 19)
			for name, was := range live {
				pF, _ := eF.Network().FetchTensor(name)
				if pF != was {
					t.Errorf("%s: the fused rule replaced the parameter tensor", name)
				}
				if tensor.Compare(pF, initial[name]).L2 == 0 {
					t.Errorf("%s: 20 steps changed nothing", name)
				}
			}
			if l2 := paramDivergence(eF, eR); l2 > optimizerTol {
				t.Fatalf("final l2 divergence %g exceeds %g", l2, optimizerTol)
			}
		})
	}
}

// TestCheckpointSlotsInterchangeable pins checkpoint compatibility across
// the switch of defaults: a state captured from a reference form — what
// every checkpoint written before the fused rules were the product holds —
// restores into the fused form under the same slot names (and back), and
// the resumed run continues the uninterrupted one.
func TestCheckpointSlotsInterchangeable(t *testing.T) {
	for _, c := range rulePairs {
		t.Run(c.name, func(t *testing.T) {
			// Uninterrupted: 10 steps of the reference form.
			eWhole := mlpExec(t, 9)
			whole, _ := synthSamplers(16)
			trainSteps(t, NewDriver(eWhole, c.ref()), whole, 10)

			// Interrupted: 5 reference steps, state moved into the fused
			// form, 5 more steps there.
			e := mlpExec(t, 9)
			train, _ := synthSamplers(16)
			ref := c.ref()
			trainSteps(t, NewDriver(e, ref), train, 5)
			saved := ref.(CheckpointableOptimizer).CaptureState()
			fused := c.fused()
			if err := fused.(CheckpointableOptimizer).RestoreState(saved); err != nil {
				t.Fatal(err)
			}
			trainSteps(t, NewDriver(e, fused), train, 5)
			if l2 := paramDivergence(e, eWhole); l2 > optimizerTol {
				t.Fatalf("resuming a reference checkpoint under the fused rule diverged by %g", l2)
			}

			back := fused.(CheckpointableOptimizer).CaptureState()
			for key := range saved.Ints {
				if _, ok := back.Ints[key]; !ok {
					t.Errorf("fused state lacks counter %q", key)
				}
			}
			for key := range saved.Tensors {
				if _, ok := back.Tensors[key]; !ok {
					t.Errorf("fused state lacks slot %q", key)
				}
			}
			if len(back.Ints) != len(saved.Ints) || len(back.Tensors) != len(saved.Tensors) {
				t.Errorf("fused state has %d counters and %d slots, reference %d and %d",
					len(back.Ints), len(back.Tensors), len(saved.Ints), len(saved.Tensors))
			}
		})
	}
}

// TestDriverStepAllocatesNothingParameterSized pins the training step's
// allocation discipline: once warm, a Driver step under a product rule
// allocates less than a single copy of the largest parameter — no fresh
// gradient, no composed update, no swapped-in tensor.
func TestDriverStepAllocatesNothingParameterSized(t *testing.T) {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 16, Width: 16, WithHead: true, Seed: 3}, 256)
	e := executor.MustNew(m)
	e.SetTraining(true)
	var largest int64
	for _, name := range e.Network().Params() {
		p, _ := e.Network().FetchTensor(name)
		largest = max(largest, p.Bytes())
	}
	ds := SyntheticClassification(64, 4, []int{1, 16, 16}, 0.3, 5)
	feeds := NewSequentialSampler(ds, 8).Next().Feeds()
	d := NewDriver(e, NewFusedMomentum(0.05, 0.9))
	step := func() {
		if _, err := d.Train(context.Background(), feeds); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	const steps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := int64(after.TotalAlloc-before.TotalAlloc) / steps
	if perStep >= largest/2 {
		t.Fatalf("a warm step allocates %d B; the largest parameter is %d B", perStep, largest)
	}
	t.Logf("warm step: %d B allocated, largest parameter %d B", perStep, largest)
}
