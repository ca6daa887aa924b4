package executor

import (
	"context"
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/ops"
	"deep500/internal/tensor"
)

// requireAllGrads turns an executor into the pre-analysis behaviour: every
// operator computes the gradient of every input.
func requireAllGrads(e *Executor) {
	for _, op := range e.nodeOps {
		if ga, ok := op.(ops.GradMaskAware); ok {
			ga.SetGradMask(nil, nil)
		}
	}
}

// TestGradMaskLeavesParameterGradientsUnchanged is the acceptance gate of
// the requires-grad analysis: on every zoo model — the MLP, LeNet, and the
// residual networks whose block inputs feed two consumers — the parameter
// gradients with the mask installed are bit-identical to those of an
// executor that computes every input gradient. Skipping a dX nobody reads
// must not change any dW.
func TestGradMaskLeavesParameterGradientsUnchanged(t *testing.T) {
	for name, m := range conformanceModels() {
		masked, full := MustNew(m), MustNew(m)
		requireAllGrads(full)
		feeds := feedsFor(m, 6, 13)
		for _, e := range []*Executor{masked, full} {
			if _, err := e.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want := full.Network().Gradients()
		got := masked.Network().Gradients()
		if len(got) != len(want) || len(got) != len(masked.Network().Params()) {
			t.Fatalf("%s: %d gradients with the mask, %d without, %d parameters",
				name, len(got), len(want), len(masked.Network().Params()))
		}
		for i, pg := range got {
			for j, v := range pg.Grad.Data() {
				if math.Float32bits(v) != math.Float32bits(want[i].Grad.Data()[j]) {
					t.Errorf("%s: gradient of %s differs at %d: %g vs %g",
						name, pg.Name, j, v, want[i].Grad.Data()[j])
					break
				}
			}
		}
	}
}

// TestRequiresGradAnalysis pins the analysis itself on a small graph: the
// data feed and what is computed from it alone need no gradient, parameters
// and everything downstream of them do, and a value with two consumers
// keeps both.
func TestRequiresGradAnalysis(t *testing.T) {
	m := graph.NewModel("mask")
	rng := tensor.NewRNG(5)
	m.AddInput("x", -1, 1, 4, 4)
	m.AddInput("target", -1, 16)
	m.AddInitializer("w1", tensor.RandNormal(rng, 0, 0.5, 16, 16))
	m.AddInitializer("w2", tensor.RandNormal(rng, 0, 0.5, 16, 16))
	m.AddNode(graph.NewNode("Flatten", "fl", []string{"x"}, []string{"f"}, graph.IntAttr("axis", 1)))
	m.AddNode(graph.NewNode("MatMul", "mm1", []string{"f", "w1"}, []string{"a"}))
	m.AddNode(graph.NewNode("Relu", "r", []string{"a"}, []string{"b"}))
	m.AddNode(graph.NewNode("MatMul", "mm2", []string{"b", "w2"}, []string{"c"}))
	m.AddNode(graph.NewNode("Add", "res", []string{"c", "a"}, []string{"d"}))
	m.AddNode(graph.NewNode("MeanSquaredError", "mse", []string{"d", "target"}, []string{"loss"}))
	m.AddOutput("loss")
	e := MustNew(m)
	want := map[string][]bool{
		"fl":  {false},
		"mm1": {false, true},
		"r":   {true},
		"mm2": {true, true},
		"res": {true, true},
		"mse": {true, false},
	}
	for n, mask := range e.gradMask {
		w := want[n.Name]
		if len(mask) != len(w) {
			t.Fatalf("node %s: mask %v, want %v", n.Name, mask, w)
		}
		for i := range w {
			if mask[i] != w[i] {
				t.Errorf("node %s: mask %v, want %v", n.Name, mask, w)
			}
		}
	}

	// The first MatMul skips dA, and "a" still collects both consumers'
	// contributions: w1's gradient matches central differences.
	feeds := map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(rng, 0, 1, 3, 1, 4, 4),
		"target": tensor.RandNormal(rng, 0, 1, 3, 16),
	}
	if _, err := e.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
		t.Fatal(err)
	}
	w1, _ := e.Network().FetchTensor("w1")
	g := e.Network().Gradient("w1")
	lossAt := func() float64 {
		out, err := e.Inference(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		return float64(out["loss"].Data()[0])
	}
	const h = 1e-2
	for i := 0; i < w1.Size(); i += 37 {
		orig := w1.Data()[i]
		w1.Data()[i] = orig + h
		lp := lossAt()
		w1.Data()[i] = orig - h
		lm := lossAt()
		w1.Data()[i] = orig
		num := (lp - lm) / (2 * h)
		if d := math.Abs(num - float64(g.Data()[i])); d > 5e-3 && d > 0.05*math.Abs(num) {
			t.Errorf("w1[%d]: analytic %g numeric %g", i, g.Data()[i], num)
		}
	}
}

// TestSetOpInstallsGradMask checks a swapped-in operator (the framework
// emulation layer's path) receives the node's mask.
func TestSetOpInstallsGradMask(t *testing.T) {
	m := conformanceModels()["lenet"]
	e := MustNew(m)
	for _, n := range e.order {
		if n.OpType != "Conv" {
			continue
		}
		op, err := ops.FromNode(n)
		if err != nil {
			t.Fatal(err)
		}
		e.SetOp(n, op)
	}
	feeds := feedsFor(m, 4, 3)
	if _, err := e.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
		t.Fatal(err)
	}
	first := e.order[0]
	if first.OpType != "Conv" {
		t.Fatalf("LeNet's first node is %s", first.OpType)
	}
	grads := e.nodeOps[first].Backward(
		[]*tensor.Tensor{tensor.New(e.nodeOuts[first][0].Shape()...)}, e.nodeIns[first], e.nodeOuts[first])
	if grads[0] != nil || grads[1] == nil {
		t.Fatalf("first conv after SetOp: dX computed=%v, dW computed=%v; want false, true", grads[0] != nil, grads[1] != nil)
	}
}
