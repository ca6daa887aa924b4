package compile_test

import (
	"context"
	"testing"

	"deep500/internal/compile"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// --- helpers -------------------------------------------------------------

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

// countOps tallies node op types.
func countOps(m *graph.Model) map[string]int {
	out := map[string]int{}
	for _, n := range m.Nodes {
		out[n.OpType]++
	}
	return out
}

// runBoth executes original and optimized models on the same feeds and
// asserts every declared output matches within tol.
func runBoth(t *testing.T, orig, opt *graph.Model, feeds map[string]*tensor.Tensor, tol float64) {
	t.Helper()
	e0 := executor.MustNew(orig)
	e1 := executor.MustNew(opt)
	ref, err := e0.Inference(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e1.Inference(context.Background(), feeds)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range ref {
		g, ok := got[name]
		if !ok {
			t.Fatalf("optimized model lost output %q", name)
		}
		if d := maxAbsDiff(t, r, g); d > tol {
			t.Fatalf("output %q diverges: max |Δ| = %g", name, d)
		}
	}
}

// --- constant folding ----------------------------------------------------

// constChainModel: y = x + neg(c) with c a Constant node — a two-node
// constant subgraph (Constant → Neg) that folding must fully collapse.
func constChainModel() *graph.Model {
	m := graph.NewModel("const-chain")
	m.AddInput("x", 4)
	c := tensor.From([]float32{1, -2, 3, -4}, 4)
	m.AddNode(graph.NewNode("Constant", "cnode", nil, []string{"cval"}, graph.TensorAttr("value", c)))
	m.AddNode(graph.NewNode("Neg", "neg", []string{"cval"}, []string{"nval"}))
	m.AddNode(graph.NewNode("Add", "add", []string{"x", "nval"}, []string{"y"}))
	m.AddOutput("y")
	return m
}

func TestConstantFoldingGolden(t *testing.T) {
	m := constChainModel()
	opt, rep, err := compile.Optimize(m, compile.Options{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Folded != 2 {
		t.Fatalf("folded %d nodes, want 2 (Constant, Neg)", rep.Folded)
	}
	if len(opt.Nodes) != 1 || opt.Nodes[0].OpType != "Add" {
		t.Fatalf("optimized nodes = %v, want single Add", countOps(opt))
	}
	nv, ok := opt.Initializers["nval"]
	if !ok {
		t.Fatal("folded value nval not promoted to initializer")
	}
	want := []float32{-1, 2, -3, 4}
	for i, v := range nv.Data() {
		if v != want[i] {
			t.Fatalf("folded nval = %v, want %v", nv.Data(), want)
		}
	}
	feeds := map[string]*tensor.Tensor{"x": tensor.From([]float32{10, 20, 30, 40}, 4)}
	runBoth(t, m, opt, feeds, 0)
}

func TestFoldInitializersIsOptIn(t *testing.T) {
	m := graph.NewModel("init-fold")
	m.AddInput("x", 2, 3)
	rng := tensor.NewRNG(1)
	m.AddInitializer("w1", tensor.RandNormal(rng, 0, 1, 3, 3))
	m.AddInitializer("w2", tensor.RandNormal(rng, 0, 1, 3, 3))
	// wprod = w1 · w2 is initializer-only; y = x · wprod depends on x.
	m.AddNode(graph.NewNode("MatMul", "wprod", []string{"w1", "w2"}, []string{"w12"}))
	m.AddNode(graph.NewNode("MatMul", "apply", []string{"x", "w12"}, []string{"y"}))
	m.AddOutput("y")

	// Training-safe default: initializers are parameters, not constants.
	opt, rep, err := compile.Optimize(m, compile.Options{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Folded != 0 || len(opt.Nodes) != 2 {
		t.Fatalf("default fold touched parameter-fed nodes: %+v", rep)
	}

	// Inference-only mode bakes the parameter product into the graph.
	opt, rep, err = compile.Optimize(m, compile.Options{Fold: true, FoldInitializers: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Folded != 1 || len(opt.Nodes) != 1 {
		t.Fatalf("FoldInitializers: folded %d nodes (%d remain), want 1 (1 remains)", rep.Folded, len(opt.Nodes))
	}
	feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(2), 0, 1, 2, 3)}
	runBoth(t, m, opt, feeds, 1e-6)
}

// --- dead-node elimination ----------------------------------------------

func TestDeadNodeElimination(t *testing.T) {
	m := graph.NewModel("dce")
	m.AddInput("x", 4)
	m.AddInitializer("wdead", tensor.New(3))
	m.AddNode(graph.NewNode("Relu", "live", []string{"x"}, []string{"y"}))
	// Dead chain: nothing reads d2.
	m.AddNode(graph.NewNode("Neg", "dead1", []string{"x"}, []string{"d1"}))
	m.AddNode(graph.NewNode("Neg", "dead2", []string{"d1"}, []string{"d2"}))
	m.AddOutput("y")

	opt, rep, err := compile.Optimize(m, compile.Options{DCE: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Eliminated != 2 {
		t.Fatalf("eliminated %d nodes, want 2", rep.Eliminated)
	}
	if rep.PrunedInitializers != 1 {
		t.Fatalf("pruned %d initializers, want 1", rep.PrunedInitializers)
	}
	if len(opt.Nodes) != 1 || opt.Nodes[0].Name != "live" {
		t.Fatalf("optimized nodes = %v", countOps(opt))
	}
	if len(m.Nodes) != 3 || m.Initializers["wdead"] == nil {
		t.Fatal("Optimize mutated its input model")
	}
	feeds := map[string]*tensor.Tensor{"x": tensor.From([]float32{-1, 2, -3, 4}, 4)}
	runBoth(t, m, opt, feeds, 0)
}

// --- fusion: golden node counts -----------------------------------------

func TestFusionGoldenMLP(t *testing.T) {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 3}
	m := models.MLP(cfg, 32, 16)
	// flatten, fc1, relu, fc2, relu, fc3, loss, acc = 8 nodes.
	if len(m.Nodes) != 8 {
		t.Fatalf("MLP baseline has %d nodes, want 8 (update golden)", len(m.Nodes))
	}
	opt, rep, err := compile.Optimize(m, compile.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused != 2 || len(opt.Nodes) != 6 {
		t.Fatalf("fused %d chains → %d nodes, want 2 → 6", rep.Fused, len(opt.Nodes))
	}
	if got := countOps(opt); got["FusedGemmAct"] != 2 || got["Relu"] != 0 {
		t.Fatalf("optimized op mix = %v", got)
	}
}

func TestFusionGoldenLeNet(t *testing.T) {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 3}
	m := models.LeNet(cfg)
	// conv,relu,pool ×2, flatten, (fc,relu) ×2, fc, loss, acc = 14 nodes.
	if len(m.Nodes) != 14 {
		t.Fatalf("LeNet baseline has %d nodes, want 14 (update golden)", len(m.Nodes))
	}
	opt, rep, err := compile.Optimize(m, compile.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused != 4 || len(opt.Nodes) != 10 {
		t.Fatalf("fused %d chains → %d nodes, want 4 → 10", rep.Fused, len(opt.Nodes))
	}
	got := countOps(opt)
	if got["FusedConvRelu"] != 2 || got["FusedGemmAct"] != 2 || got["Relu"] != 0 {
		t.Fatalf("optimized op mix = %v", got)
	}
}

// --- fusion: negative cases ---------------------------------------------

// TestNoFusionSharedConsumer: a Dense output consumed twice must not fuse —
// the second consumer still needs the pre-activation tensor.
func TestNoFusionSharedConsumer(t *testing.T) {
	m := graph.NewModel("shared")
	m.AddInput("x", 2, 3)
	rng := tensor.NewRNG(5)
	m.AddInitializer("w", tensor.RandNormal(rng, 0, 1, 3, 4))
	m.AddInitializer("b", tensor.New(4))
	m.AddNode(graph.NewNode("Gemm", "fc", []string{"x", "w", "b"}, []string{"h"}))
	m.AddNode(graph.NewNode("Relu", "act", []string{"h"}, []string{"r"}))
	m.AddNode(graph.NewNode("Sigmoid", "side", []string{"h"}, []string{"s"}))
	m.AddOutput("r")
	m.AddOutput("s")

	opt, rep, err := compile.Optimize(m, compile.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused != 0 || len(opt.Nodes) != 3 {
		t.Fatalf("fused a twice-consumed tensor: %+v, nodes %v", rep, countOps(opt))
	}
}

// TestNoFusionDeclaredOutput: the pre-activation tensor is part of the
// model's contract when it is a declared output.
func TestNoFusionDeclaredOutput(t *testing.T) {
	m := graph.NewModel("declared")
	m.AddInput("x", 2, 3)
	m.AddInitializer("w", tensor.RandNormal(tensor.NewRNG(5), 0, 1, 3, 4))
	m.AddNode(graph.NewNode("Gemm", "fc", []string{"x", "w"}, []string{"h"}))
	m.AddNode(graph.NewNode("Relu", "act", []string{"h"}, []string{"r"}))
	m.AddOutput("h")
	m.AddOutput("r")

	opt, rep, err := compile.Optimize(m, compile.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused != 0 || len(opt.Nodes) != 2 {
		t.Fatalf("fused away a declared output: %+v, nodes %v", rep, countOps(opt))
	}
}

// TestNoFusionConvSigmoid: Conv only fuses with ReLU.
func TestNoFusionConvSigmoid(t *testing.T) {
	m := graph.NewModel("conv-sigmoid")
	m.AddInput("x", 1, 2, 6, 6)
	m.AddInitializer("w", tensor.RandNormal(tensor.NewRNG(5), 0, 1, 3, 2, 3, 3))
	m.AddNode(graph.NewNode("Conv", "conv", []string{"x", "w"}, []string{"h"},
		graph.IntsAttr("strides", 1, 1), graph.IntsAttr("pads", 1, 1),
		graph.IntsAttr("kernel_shape", 3, 3)))
	m.AddNode(graph.NewNode("Sigmoid", "act", []string{"h"}, []string{"y"}))
	m.AddOutput("y")

	opt, rep, err := compile.Optimize(m, compile.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fused != 0 || len(opt.Nodes) != 2 {
		t.Fatalf("Conv→Sigmoid must not fuse: %+v, nodes %v", rep, countOps(opt))
	}
}

// --- fused-vs-unfused numerical equality ---------------------------------

// xorModel is the repository's canonical 2-layer MLP: fc1 → Tanh fuses into
// one FusedGemmAct, fc2 feeds the loss head and must not fuse.
func xorModel() *graph.Model {
	m := graph.NewModel("xor")
	rng := tensor.NewRNG(7)
	m.AddInput("x", -1, 2)
	m.AddInput("labels", -1)
	m.AddInitializer("w1", tensor.XavierInit(rng, 2, 8, 2, 8))
	m.AddInitializer("b1", tensor.New(8))
	m.AddInitializer("w2", tensor.XavierInit(rng, 8, 2, 8, 2))
	m.AddInitializer("b2", tensor.New(2))
	m.AddNode(graph.NewNode("Gemm", "fc1", []string{"x", "w1", "b1"}, []string{"h1"}))
	m.AddNode(graph.NewNode("Tanh", "act", []string{"h1"}, []string{"h2"}))
	m.AddNode(graph.NewNode("Gemm", "fc2", []string{"h2", "w2", "b2"}, []string{"logits"}))
	m.AddNode(graph.NewNode("SoftmaxCrossEntropy", "loss", []string{"logits", "labels"}, []string{"l", "probs"}))
	m.AddNode(graph.NewNode("Accuracy", "acc", []string{"logits", "labels"}, []string{"a"}))
	m.AddOutput("l")
	m.AddOutput("a")
	return m
}

func xorFeeds() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{
		"x":      tensor.From([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2),
		"labels": tensor.From([]float32{0, 1, 1, 0}, 4),
	}
}

// TestFusedGradientEqualityXOR asserts outputs and every parameter gradient
// of the fused XOR MLP match the unfused reference.
func TestFusedGradientEqualityXOR(t *testing.T) {
	const tol = 1e-6
	m := xorModel()
	feeds := xorFeeds()

	ref := executor.MustNew(m)
	if _, err := ref.InferenceAndBackprop(context.Background(), feeds, "l"); err != nil {
		t.Fatal(err)
	}
	refGrads := ref.Network().Gradients()
	if len(refGrads) != 4 {
		t.Fatalf("reference produced %d gradients, want 4", len(refGrads))
	}

	// The subtest is named after the executor's (sequential) schedule.
	t.Run("sequential", func(t *testing.T) {
		e, err := executor.New(m, executor.WithOptimize(compile.Defaults()))
		if err != nil {
			t.Fatal(err)
		}
		if rep := e.CompileReport(); rep.Fused != 1 {
			t.Fatalf("xor fused %d chains, want 1 (fc1+Tanh)", rep.Fused)
		}
		out, err := e.InferenceAndBackprop(context.Background(), feeds, "l")
		if err != nil {
			t.Fatal(err)
		}
		refOut, err := ref.Inference(context.Background(), feeds)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range refOut {
			if d := maxAbsDiff(t, r, out[name]); d > tol {
				t.Fatalf("output %q diverges: %g", name, d)
			}
		}
		gotGrads := e.Network().Gradients()
		if len(gotGrads) != len(refGrads) {
			t.Fatalf("gradient count %d vs %d", len(gotGrads), len(refGrads))
		}
		for i, pg := range refGrads {
			if gotGrads[i].Name != pg.Name {
				t.Fatalf("gradient order: %q vs %q", gotGrads[i].Name, pg.Name)
			}
			if d := maxAbsDiff(t, pg.Grad, gotGrads[i].Grad); d > tol {
				t.Fatalf("gradient %q diverges: %g", pg.Name, d)
			}
		}
	})
}

// TestFusedTrainingMatchesUnfused trains the XOR MLP for 60 SGD steps with
// and without the compile pipeline (on deep-cloned models, so parameters are
// not shared) and asserts the learned parameters stay tolerance-equal — the
// end-to-end check that fusion preserves the whole optimization trajectory.
func TestFusedTrainingMatchesUnfused(t *testing.T) {
	const lr, steps, tol = 0.5, 60, 1e-4
	feeds := xorFeeds()

	mRef := xorModel()
	mOpt := xorModel() // independent parameter storage, identical init (same seed)
	eRef := executor.MustNew(mRef)
	eOpt, err := executor.New(mOpt, executor.WithOptimize(compile.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		for _, e := range []*executor.Executor{eRef, eOpt} {
			if _, err := e.InferenceAndBackprop(context.Background(), feeds, "l"); err != nil {
				t.Fatal(err)
			}
			for _, pg := range e.Network().Gradients() {
				for j := range pg.Param.Data() {
					pg.Param.Data()[j] -= lr * pg.Grad.Data()[j]
				}
			}
		}
	}
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		a, err := eRef.Network().FetchTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eOpt.Network().FetchTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(t, a, b); d > tol {
			t.Fatalf("parameter %q diverged after %d fused training steps: %g", name, steps, d)
		}
	}
}

// TestOptimizedSharesParameters pins the ShallowClone contract: the
// optimized executor trains the caller's parameter tensors.
func TestOptimizedSharesParameters(t *testing.T) {
	m := xorModel()
	e, err := executor.New(m, executor.WithOptimize(compile.Defaults()))
	if err != nil {
		t.Fatal(err)
	}
	w1, err := e.Network().FetchTensor("w1")
	if err != nil {
		t.Fatal(err)
	}
	if w1 != m.Initializers["w1"] {
		t.Fatal("optimized network does not share parameter storage with the source model")
	}
}
