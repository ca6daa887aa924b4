package executor

import (
	"context"
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

// TestArenaRecyclesActivations asserts that steady-state inference through
// an arena actually reuses buffers instead of allocating fresh ones.
func TestArenaRecyclesActivations(t *testing.T) {
	ar := tensor.NewArena()
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 3})
	e := MustNew(m, WithArena(ar))
	feeds := feedsFor(m, 2, 5)
	for i := 0; i < 4; i++ {
		if _, err := e.Inference(context.Background(), feeds); err != nil {
			t.Fatal(err)
		}
	}
	st := ar.Stats()
	if st.Gets == 0 {
		t.Fatal("arena saw no allocations — operators not wired to the allocator")
	}
	if st.Hits == 0 {
		t.Fatalf("arena never recycled a buffer across %d passes (gets=%d)", 4, st.Gets)
	}
	t.Logf("arena traffic: %d gets, %d hits (%.0f%% recycled)",
		st.Gets, st.Hits, 100*float64(st.Hits)/float64(st.Gets))
}

// TestPlanArenaConformance is the acceptance gate of the executor's
// allocation strategies: every zoo model must produce tolerance-equal
// outputs and parameter gradients with the arena and the memory plan on and
// off, validated under -race in CI.
func TestPlanArenaConformance(t *testing.T) {
	const tol = 1e-5
	for name, m := range conformanceModels() {
		t.Run(name, func(t *testing.T) {
			feeds := feedsFor(m, 4, 11)
			ref := MustNew(m)

			variants := map[string]*Executor{
				"arena": MustNew(m, WithArena(tensor.NewArena())),
				// Plan variants: pass 0 profiles, passes 1-2 run out of the
				// static slab — the repeat loop below exercises both modes, and
				// the backprop check exercises the plan-bypass path.
				"plan":       MustNew(m, WithMemPlan(true)),
				"plan+arena": MustNew(m, WithArena(tensor.NewArena()), WithMemPlan(true)),
			}

			refOut, err := ref.Inference(context.Background(), feeds)
			if err != nil {
				t.Fatal(err)
			}
			for vname, e := range variants {
				for pass := 0; pass < 3; pass++ { // repeat to exercise arena reuse
					got, err := e.Inference(context.Background(), feeds)
					if err != nil {
						t.Fatalf("%s: %v", vname, err)
					}
					for oname, r := range refOut {
						g, ok := got[oname]
						if !ok {
							t.Fatalf("%s: missing output %q", vname, oname)
						}
						if d := maxAbsDiff(t, r, g); d > tol {
							t.Fatalf("%s pass %d: output %q diverges: max |Δ| = %g", vname, pass, oname, d)
						}
					}
				}
			}

			if _, err := ref.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
				t.Fatal(err)
			}
			refGrads := ref.Network().Gradients()
			if len(refGrads) == 0 {
				t.Fatal("reference produced no gradients")
			}
			for vname, e := range variants {
				if _, err := e.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				gotGrads := e.Network().Gradients()
				if len(gotGrads) != len(refGrads) {
					t.Fatalf("%s: gradient count %d vs %d", vname, len(gotGrads), len(refGrads))
				}
				for i, pg := range refGrads {
					if gotGrads[i].Name != pg.Name {
						t.Fatalf("%s: gradient order %q vs %q", vname, gotGrads[i].Name, pg.Name)
					}
					if d := maxAbsDiff(t, pg.Grad, gotGrads[i].Grad); d > tol {
						t.Fatalf("%s: gradient %q diverges: max |Δ| = %g", vname, pg.Name, d)
					}
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
