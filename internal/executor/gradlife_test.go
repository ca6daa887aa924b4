package executor

import (
	"context"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// TestGradientLifetime pins the ownership contract of the recycled backward
// pass on every zoo model (plain and residual graphs, so accumulated and
// multi-consumer gradients are covered): the tensors Network().Gradients()
// hands out are valid until the next InferenceAndBackprop on that executor,
// which reuses the very same tensors — and the reused buffers carry no
// residue: the second step's gradients are bit-identical to those of a
// fresh executor that only ever ran the second step, even after the caller
// scribbled over the first step's gradients as an all-reduce hook does.
func TestGradientLifetime(t *testing.T) {
	for name, m := range conformanceModels() {
		reused, fresh := MustNew(m), MustNew(m)
		first, second := feedsFor(m, 6, 13), feedsFor(m, 6, 14)
		ctx := context.Background()

		if _, err := reused.InferenceAndBackprop(ctx, first, "loss"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(reused.gradOf) != 0 {
			t.Fatalf("%s: the executor still references %d gradients after the pass; the per-pass ones must be garbage by now",
				name, len(reused.gradOf))
		}
		held := make(map[string]*tensor.Tensor)
		copies := make(map[string]*tensor.Tensor)
		for _, pg := range reused.Network().Gradients() {
			held[pg.Name], copies[pg.Name] = pg.Grad, pg.Grad.Clone()
		}
		// Until the next pass the gradients are the caller's to read and to
		// overwrite in place.
		if _, err := reused.Inference(ctx, second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pname, g := range held {
			if maxAbsDiff(t, g, copies[pname]) != 0 {
				t.Fatalf("%s: an inference pass changed the held gradient of %s", name, pname)
			}
			g.Fill(float32(math.NaN()))
		}

		for _, e := range []*Executor{reused, fresh} {
			if _, err := e.InferenceAndBackprop(ctx, second, "loss"); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want := fresh.Network().Gradients()
		got := reused.Network().Gradients()
		if len(got) != len(want) || len(got) != len(held) {
			t.Fatalf("%s: %d gradients after reuse, %d fresh, %d held", name, len(got), len(want), len(held))
		}
		for i, pg := range got {
			if pg.Grad != held[pg.Name] {
				t.Errorf("%s: gradient of %s is a new tensor; the backward pass is meant to recycle it", name, pg.Name)
			}
			for j, v := range pg.Grad.Data() {
				if math.Float32bits(v) != math.Float32bits(want[i].Grad.Data()[j]) {
					t.Errorf("%s: recycled gradient of %s differs from a fresh one at %d: %g vs %g",
						name, pg.Name, j, v, want[i].Grad.Data()[j])
					break
				}
			}
		}
	}
}
