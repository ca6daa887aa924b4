package executor

import (
	"context"
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// checkViews fails unless every parameter FetchTensor returns and every
// gradient Gradient returns is the view at its offset in ParamSlab and
// GradSlab, and each parameter without a gradient has a zero segment.
func checkViews(t *testing.T, name string, net *Network) {
	t.Helper()
	params, grads := net.ParamSlab().Data(), net.GradSlab().Data()
	off := 0
	for _, pname := range net.Params() {
		p, _ := net.FetchTensor(pname)
		end := off + p.Size()
		if p.Size() > 0 && &p.Data()[0] != &params[off] {
			t.Errorf("%s: parameter %s is not the view at offset %d of the parameter slab", name, pname, off)
		}
		if g := net.Gradient(pname); g == nil {
			for i, v := range grads[off:end] {
				if math.Float32bits(v) != 0 {
					t.Errorf("%s: %s got no gradient, yet its segment holds %g at %d", name, pname, v, i)
					break
				}
			}
		} else if g.Size() != p.Size() || (p.Size() > 0 && &g.Data()[0] != &grads[off]) {
			t.Errorf("%s: the gradient of %s is not the view at offset %d of the gradient slab", name, pname, off)
		}
		off = end
	}
	if off != len(params) || off != len(grads) {
		t.Errorf("%s: the parameters cover %d values of slabs of %d and %d", name, off, len(params), len(grads))
	}
}

// TestSlabViews: on every zoo model (batch normalization's running
// statistics get no gradient) the parameters and gradients are views into
// the two slabs, and a backward pass leaves nothing of what the caller
// wrote over the gradient slab before it.
func TestSlabViews(t *testing.T) {
	for name, m := range conformanceModels() {
		e := MustNew(m)
		for pass := 0; pass < 2; pass++ {
			if _, err := e.InferenceAndBackprop(context.Background(), feedsFor(m, 4, 3), "loss"); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pass == 0 {
				checkViews(t, name, e.Network())
				e.Network().GradSlab().Fill(float32(math.NaN()))
			}
		}
		if len(e.Network().Gradients()) == 0 {
			t.Fatalf("%s: no gradients", name)
		}
		checkViews(t, name, e.Network())
		for _, pg := range e.Network().Gradients() {
			if pg.Grad.HasNaN() {
				t.Errorf("%s: the gradient of %s kept the NaNs written before the pass", name, pg.Name)
			}
		}
	}
}

// TestExecutorsShareParamSlab: a second executor over a model adopts the
// parameter slab the first laid out, so a write through either is seen by
// both, while each lays out its own gradient slab, and only once it runs a
// backward pass.
func TestExecutorsShareParamSlab(t *testing.T) {
	m := xorModel()
	a, b := MustNew(m), MustNew(m)
	pa, pb := a.Network().ParamSlab().Data(), b.Network().ParamSlab().Data()
	if &pa[0] != &pb[0] || len(pa) != len(pb) {
		t.Fatal("two executors over one model hold two parameter slabs")
	}
	x, labels := xorData()
	for _, e := range []*Executor{a, b} {
		feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
		if _, err := e.Inference(context.Background(), feeds); err != nil || e.Network().GradSlab() != nil {
			t.Fatalf("an inference pass laid out a gradient slab (err %v)", err)
		}
		if _, err := e.InferenceAndBackprop(context.Background(), feeds, "l"); err != nil {
			t.Fatal(err)
		}
	}
	if &a.Network().GradSlab().Data()[0] == &b.Network().GradSlab().Data()[0] {
		t.Fatal("two executors share one gradient slab")
	}
	w, _ := a.Network().FetchTensor("w1")
	w.Data()[0] = 42
	if got, _ := b.Network().FetchTensor("w1"); got.Data()[0] != 42 || m.Initializers["w1"].Data()[0] != 42 {
		t.Fatal("a parameter write through one executor is not seen by the other or by the model")
	}
}

// TestFeedNewShapeRelaysSlabs: a FeedTensor of a new name lays both slabs
// out again, and the next backward pass writes its gradients into the new
// gradient slab, bitwise as a fresh executor over the fed model does.
func TestFeedNewShapeRelaysSlabs(t *testing.T) {
	x, labels := xorData()
	feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
	ctx := context.Background()
	e := MustNew(xorModel())
	if _, err := e.InferenceAndBackprop(ctx, feeds, "l"); err != nil {
		t.Fatal(err)
	}
	e.Network().FeedTensor("extra", tensor.Full(3, 5))
	if e.Network().GradSlab() != nil || len(e.Network().Gradients()) != 0 {
		t.Fatal("a FeedTensor of a new name kept the old gradient slab or its gradients")
	}
	if _, err := e.InferenceAndBackprop(ctx, feeds, "l"); err != nil {
		t.Fatal(err)
	}
	checkViews(t, "relaid", e.Network())
	fresh := MustNew(e.Network().Model)
	if _, err := fresh.InferenceAndBackprop(ctx, feeds, "l"); err != nil {
		t.Fatal(err)
	}
	got, want := e.Network().GradSlab().Data(), fresh.Network().GradSlab().Data()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("gradient slab [%d]: %g after the relayout, %g fresh", i, got[i], want[i])
		}
	}
}

// TestSharedWeightGradientLandsInSlab: a weight read by two nodes has its
// gradient summed over both and copied into its view, bitwise the sum of
// the gradients of two separate copies of it.
func TestSharedWeightGradientLandsInSlab(t *testing.T) {
	build := func(second string) *graph.Model {
		m := graph.NewModel("shared")
		rng := tensor.NewRNG(5)
		m.AddInput("x", -1, 4)
		m.AddInput("labels", -1)
		w := tensor.XavierInit(rng, 4, 4, 4, 4)
		m.AddInitializer("w", w)
		if second != "w" {
			m.AddInitializer(second, w.Clone())
		}
		m.AddNode(graph.NewNode("Gemm", "fc1", []string{"x", "w"}, []string{"h1"}))
		m.AddNode(graph.NewNode("Tanh", "act", []string{"h1"}, []string{"h2"}))
		m.AddNode(graph.NewNode("Gemm", "fc2", []string{"h2", second}, []string{"logits"}))
		m.AddNode(graph.NewNode("SoftmaxCrossEntropy", "loss", []string{"logits", "labels"}, []string{"l", "probs"}))
		m.AddOutput("l")
		return m
	}
	feeds := map[string]*tensor.Tensor{
		"x":      tensor.RandNormal(tensor.NewRNG(9), 0, 1, 6, 4),
		"labels": tensor.From([]float32{0, 1, 2, 3, 0, 1}, 6),
	}
	shared, split := MustNew(build("w")), MustNew(build("w2"))
	for _, e := range []*Executor{shared, split} {
		for i := 0; i < 2; i++ {
			if _, err := e.InferenceAndBackprop(context.Background(), feeds, "l"); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkViews(t, "shared", shared.Network())
	g, a, b := shared.Network().Gradient("w"), split.Network().Gradient("w"), split.Network().Gradient("w2")
	for i, v := range g.Data() {
		if sum := a.Data()[i] + b.Data()[i]; math.Float32bits(v) != math.Float32bits(sum) {
			t.Fatalf("shared gradient [%d] is %g, the two copies' sum %g", i, v, sum)
		}
	}
}
