package executor

import (
	"context"
	"testing"

	"deep500/internal/compile"
	"deep500/internal/tensor"
)

// TestOptimizedConformance is the acceptance gate of the compile pipeline:
// every zoo model must produce tolerance-equal outputs and parameter
// gradients with the passes on vs off, with and without the arena and the
// memory plan, validated under -race in CI. It also asserts the pipeline
// actually shrinks the dispatch schedule on every architecture with fusible
// chains.
func TestOptimizedConformance(t *testing.T) {
	const tol = 1e-5
	// Every conformance model ends convolution/dense blocks in ReLU (and the
	// MLP in ReLU after each hidden Gemm), so all of them must fuse.
	for name, m := range conformanceModels() {
		t.Run(name, func(t *testing.T) {
			feeds := feedsFor(m, 4, 11)
			ref := MustNew(m)

			variants := map[string]*Executor{
				"opt":       MustNew(m, WithOptimize(compile.Defaults())),
				"opt+arena": MustNew(m, WithOptimize(compile.Defaults()), WithArena(tensor.NewArena())),
				// Plan variants: pass 0 profiles, passes 1-2 run out of the
				// static slab — the repeat loop below exercises both modes, and
				// the backprop check exercises the plan-bypass path.
				"opt+plan": MustNew(m, WithOptimize(compile.Defaults()), WithMemPlan(true)),
				"opt+plan+arena": MustNew(m, WithOptimize(compile.Defaults()),
					WithArena(tensor.NewArena()), WithMemPlan(true)),
			}
			for vname, e := range variants {
				rep := e.CompileReport()
				if rep == nil {
					t.Fatalf("%s: no compile report", vname)
				}
				if rep.Fused == 0 {
					t.Fatalf("%s: pipeline fused no chains on %s (%d nodes)", vname, name, rep.NodesBefore)
				}
				if rep.NodesAfter >= rep.NodesBefore {
					t.Fatalf("%s: schedule did not shrink: %d → %d nodes", vname, rep.NodesBefore, rep.NodesAfter)
				}
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

// TestOptimizeRejectsBrokenModel asserts compile errors surface from New.
func TestOptimizeRejectsBrokenModel(t *testing.T) {
	m := xorModel()
	m.Nodes[0].Inputs[0] = "undefined-tensor"
	if _, err := New(m, WithOptimize(compile.Defaults())); err == nil {
		t.Fatal("expected validation error from the compile pipeline")
	}
}
