package executor

import (
	"context"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// TestMemPlanZeroAllocs is the acceptance gate of the static memory plan:
// once the plan is installed, a steady-state forward pass must allocate
// nothing — every activation lands in the pre-sized slab, every bookkeeping
// structure is reused.
func TestMemPlanZeroAllocs(t *testing.T) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	e := MustNew(m, WithMemPlan(true))
	rng := tensor.NewRNG(11)
	feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(rng, 0, 1, 4, 1, 8, 8)}
	ctx := context.Background()

	// Pass 1 profiles and installs the plan; pass 2 settles any lazy
	// bookkeeping (cached input slices, reused maps).
	for i := 0; i < 2; i++ {
		if _, err := e.Inference(ctx, feeds); err != nil {
			t.Fatal(err)
		}
	}
	if e.MemPlan() == nil {
		t.Fatal("no memory plan installed after profiling pass")
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Inference(ctx, feeds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state planned forward pass allocates: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkPlannedForward measures a steady-state planned forward pass;
// run with -benchmem to confirm the zero-allocation property.
func BenchmarkPlannedForward(b *testing.B) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	e := MustNew(m, WithMemPlan(true))
	feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(11), 0, 1, 4, 1, 8, 8)}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.Inference(ctx, feeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Inference(ctx, feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemPlanRebuildOnShapeChange asserts a feed-shape change drops the
// stale plan, re-profiles at the new shapes, and keeps producing outputs
// identical to an unplanned executor.
func TestMemPlanRebuildOnShapeChange(t *testing.T) {
	const tol = 1e-6
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	planned := MustNew(m, WithMemPlan(true))
	ref := MustNew(m)
	ctx := context.Background()

	for _, batch := range []int{2, 2, 4, 4, 2} {
		rng := tensor.NewRNG(uint64(batch))
		feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(rng, 0, 1, batch, 1, 8, 8)}
		got, err := planned.Inference(ctx, feeds)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want, err := ref.Inference(ctx, feeds)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			g, ok := got[name]
			if !ok {
				t.Fatalf("batch %d: missing output %q", batch, name)
			}
			if d := maxAbsDiff(t, w, g); d > tol {
				t.Fatalf("batch %d: output %q diverges: max |Δ| = %g", batch, name, d)
			}
		}
	}
	if planned.MemPlan() == nil {
		t.Fatal("no plan installed after steady shapes")
	}
}

// TestMemPlanReusesSlab asserts the planner actually overlaps intermediate
// lifetimes — the slab must be smaller than the sum of all planned
// activations — and pins the exact slab and no-reuse footprints, so a
// planner change that loses (or gains) reuse shows up as a diff here.
func TestMemPlanReusesSlab(t *testing.T) {
	headless := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3}
	withHead := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 500}
	for _, tc := range []struct {
		name          string
		model         *graph.Model
		batch         int
		slab, noReuse int64
	}{
		{"lenet/headless/b2", models.LeNet(headless), 2, 75264, 120016},
		{"mlp-256-128/b8", models.MLP(withHead, 256, 128), 8, 33280, 50312},
		{"lenet/b8", models.LeNet(withHead), 8, 301056, 480392},
	} {
		e := MustNew(tc.model, WithMemPlan(true))
		if _, err := e.Inference(context.Background(), feedsFor(tc.model, tc.batch, 5)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan := e.MemPlan()
		if plan == nil {
			t.Fatalf("%s: no plan installed", tc.name)
		}
		if plan.SlabElems >= plan.NoReuseElems {
			t.Fatalf("%s: planner found no reuse: slab %d elems, no-reuse %d", tc.name, plan.SlabElems, plan.NoReuseElems)
		}
		if slab, noReuse := plan.SlabBytes(), plan.NoReuseBytes(); slab != tc.slab || noReuse != tc.noReuse {
			t.Errorf("%s: slab %d B, no-reuse %d B; want %d B, %d B", tc.name, slab, noReuse, tc.slab, tc.noReuse)
		}
		t.Logf("%s: %s", tc.name, plan)
	}
}

// TestMemPlanTrainingBypass asserts the plan never poisons a training pass:
// gradients after planned inference passes match a plan-free executor.
func TestMemPlanTrainingBypass(t *testing.T) {
	const tol = 1e-5
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 7}, 32, 16)
	planned := MustNew(m, WithMemPlan(true))
	ref := MustNew(m)
	feeds := feedsFor(m, 4, 11)
	ctx := context.Background()

	// Install the plan with inference passes, then train through it.
	for i := 0; i < 2; i++ {
		if _, err := planned.Inference(ctx, feeds); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := planned.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
		t.Fatal(err)
	}
	refGrads := ref.Network().Gradients()
	gotGrads := planned.Network().Gradients()
	if len(refGrads) == 0 || len(refGrads) != len(gotGrads) {
		t.Fatalf("gradient count %d vs %d", len(gotGrads), len(refGrads))
	}
	for i, pg := range refGrads {
		if d := maxAbsDiff(t, pg.Grad, gotGrads[i].Grad); d > tol {
			t.Fatalf("gradient %q diverges after planned passes: max |Δ| = %g", pg.Name, d)
		}
	}
	// And the plan still works for the next inference.
	if _, err := planned.Inference(ctx, feeds); err != nil {
		t.Fatal(err)
	}
}
