package executor

import (
	"context"
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// conformanceModels builds every architecture in internal/models at a
// CPU-test scale, with training heads so both inference and backprop can be
// exercised.
func conformanceModels() map[string]*graph.Model {
	mlpCfg := models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 7}
	convCfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16, WithHead: true, Seed: 7, WidthScale: 0.25}
	lenetCfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 7}
	alexCfg := models.Config{Classes: 10, Channels: 3, Height: 64, Width: 64, WithHead: true, Seed: 7, WidthScale: 0.0625}
	return map[string]*graph.Model{
		"mlp":     models.MLP(mlpCfg, 32, 16),
		"lenet":   models.LeNet(lenetCfg),
		"alexnet": models.AlexNet(alexCfg),
		"resnet8": models.ResNet(8, convCfg),
		"wrn16":   models.WideResNet(16, 1, convCfg),
	}
}

func feedsFor(m *graph.Model, batch int, seed uint64) map[string]*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	var shape []int
	for _, in := range m.Inputs {
		if in.Name == "x" {
			shape = append([]int{batch}, in.Shape[1:]...)
		}
	}
	labels := tensor.New(batch)
	for i := 0; i < batch; i++ {
		labels.Data()[i] = float32(i % 4)
	}
	return map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(rng, 0, 1, shape...),
		"labels": labels,
	}
}

func maxAbsDiff(t *testing.T, a, b *tensor.Tensor) float64 {
	t.Helper()
	if !tensor.SameShape(a, b) {
		t.Fatalf("shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	var m float64
	for i, v := range a.Data() {
		d := float64(v - b.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements.
func sameBits(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestPlanConformance is the acceptance gate of the memory plan: on every
// zoo model, the profiling pass 2 and planned passes 3-5 return outputs
// bitwise equal to the unplanned first pass. A training pass runs before
// each of them, out of its own plan from its third pass on, and its
// parameter gradients must equal a fresh executor's bit for bit. Validated
// under -race in CI.
func TestPlanConformance(t *testing.T) {
	for name, m := range conformanceModels() {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			feeds := feedsFor(m, 4, 11)
			ref := MustNew(m)
			if _, err := ref.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
				t.Fatal(err)
			}
			want := ref.Network().Gradients()
			if len(want) == 0 {
				t.Fatal("reference produced no gradients")
			}

			e := MustNew(m)
			first, err := e.Inference(ctx, feeds)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 2; pass <= 5; pass++ {
				if _, err := e.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
					t.Fatal(err)
				}
				got := e.Network().Gradients()
				if len(got) != len(want) {
					t.Fatalf("pass %d: gradient count %d vs %d", pass, len(got), len(want))
				}
				for i, pg := range want {
					if got[i].Name != pg.Name || !sameBits(pg.Grad, got[i].Grad) {
						t.Fatalf("pass %d: gradient %q differs from a fresh executor's", pass, pg.Name)
					}
				}
				out, err := e.Inference(ctx, feeds)
				if err != nil {
					t.Fatal(err)
				}
				for oname, f := range first {
					if g, ok := out[oname]; !ok || !sameBits(f, g) {
						t.Fatalf("pass %d: output %q differs from the first pass", pass, oname)
					}
				}
			}
			if len(e.plans) != 2 || e.plans[0].train == e.plans[1].train {
				t.Fatalf("%d cached entries; want one inference and one training entry", len(e.plans))
			}
			for _, p := range e.plans {
				if p.plan == nil || len(p.plan.Slots) == 0 {
					t.Fatalf("the entry with train=%v holds no plan that places activations", p.train)
				}
			}
		})
	}
}

// TestNewRejectsBrokenModel asserts validation errors surface from New.
func TestNewRejectsBrokenModel(t *testing.T) {
	m := xorModel()
	m.Nodes[0].Inputs[0] = "undefined-tensor"
	if _, err := New(m); err == nil {
		t.Fatal("expected a validation error from New")
	}
}
