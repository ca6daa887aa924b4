package executor

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// xorModel builds a 2-layer MLP for the XOR problem with a fused
// softmax-cross-entropy loss.
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

func xorData() (x, labels *tensor.Tensor) {
	x = tensor.From([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels = tensor.From([]float32{0, 1, 1, 0}, 4)
	return
}

func TestInferenceProducesOutputs(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	out, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels})
	if err != nil {
		t.Fatal(err)
	}
	if out["l"] == nil || out["a"] == nil {
		t.Fatalf("missing outputs: %v", out)
	}
	if math.Abs(float64(out["l"].Data()[0])-math.Log(2)) > 0.5 {
		t.Fatalf("initial loss %v far from ln2", out["l"].Data()[0])
	}
}

func TestMissingFeedError(t *testing.T) {
	e := MustNew(xorModel())
	x, _ := xorData()
	if _, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x}); err == nil {
		t.Fatal("expected error on missing feed")
	}
}

func TestBackpropGradientsAvailable(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	if _, err := e.InferenceAndBackprop(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels}, "l"); err != nil {
		t.Fatal(err)
	}
	grads := e.Network().Gradients()
	if len(grads) != 4 {
		t.Fatalf("want 4 parameter gradients, got %d", len(grads))
	}
	var total float64
	for _, pg := range grads {
		if !tensor.ShapeEq(pg.Grad.Shape(), pg.Param.Shape()) {
			t.Fatalf("grad shape %v != param shape %v", pg.Grad.Shape(), pg.Param.Shape())
		}
		total += pg.Grad.Norm2()
	}
	if total == 0 {
		t.Fatal("all gradients zero")
	}
}

// TestXORLearns trains XOR to 100% accuracy with plain SGD: an end-to-end
// integration test of graph, ops and executor.
func TestXORLearns(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
	lr := float32(0.5)
	var acc float32
	for it := 0; it < 800; it++ {
		out, err := e.InferenceAndBackprop(context.Background(), feeds, "l")
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range e.Network().Gradients() {
			kernels.SGDFused(pg.Param.Data(), pg.Grad.Data(), lr)
		}
		acc = out["a"].Data()[0]
		if acc == 1 && it > 50 {
			break
		}
	}
	if acc != 1 {
		t.Fatalf("XOR did not converge; final accuracy %v", acc)
	}
}

func TestEventsFire(t *testing.T) {
	e := MustNew(xorModel())
	var ops, bops int
	var infDur, bpDur time.Duration
	e.Events = &Events{
		BeforeOp:        func(n *graph.Node) { ops++ },
		AfterOp:         func(n *graph.Node, d time.Duration) {},
		AfterBackwardOp: func(n *graph.Node, d time.Duration) { bops++ },
		AfterInference:  func(d time.Duration) { infDur = d },
		AfterBackprop:   func(d time.Duration) { bpDur = d },
	}
	x, labels := xorData()
	if _, err := e.InferenceAndBackprop(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels}, "l"); err != nil {
		t.Fatal(err)
	}
	if ops != 5 {
		t.Fatalf("forward hooks fired %d times, want 5", ops)
	}
	// Accuracy node is off the loss path, so only 4 backward ops.
	if bops != 4 {
		t.Fatalf("backward hooks fired %d times, want 4", bops)
	}
	if infDur <= 0 || bpDur <= 0 {
		t.Fatal("durations not reported")
	}
}

func TestEarlyStop(t *testing.T) {
	e := MustNew(xorModel())
	count := 0
	e.Events = &Events{
		AfterOp: func(n *graph.Node, d time.Duration) { count++ },
		Stop:    func() bool { return count >= 2 },
	}
	x, labels := xorData()
	_, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels})
	if err != nil {
		t.Fatal(err)
	}
	if count > 2 {
		t.Fatalf("executed %d ops after stop", count)
	}
}

func TestMemoryModelOOM(t *testing.T) {
	m := NewMemoryModel(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	err := m.Alloc(60)
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOMError, got %v", err)
	}
	m.Free(60)
	if err := m.Alloc(90); err != nil {
		t.Fatal(err)
	}
	if m.Peak() != 90 {
		t.Fatalf("peak = %d", m.Peak())
	}
}

func TestExecutorOOMAndRecovery(t *testing.T) {
	model := xorModel()
	e := MustNew(model)
	e.Memory = NewMemoryModel(64) // absurdly small: first activation must fail
	x, labels := xorData()
	_, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels})
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOM, got %v", err)
	}
	if e.Memory.used != 0 {
		t.Fatalf("memory leaked after OOM: %d", e.Memory.used)
	}
	// Enough memory: same executor succeeds.
	e.Memory = NewMemoryModel(1 << 20)
	if _, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels}); err != nil {
		t.Fatal(err)
	}
	if e.Memory.used != 0 {
		t.Fatalf("activations not freed: %d", e.Memory.used)
	}
	if e.Memory.Peak() == 0 {
		t.Fatal("peak not recorded")
	}
}

func TestFLOPCounting(t *testing.T) {
	e := MustNew(xorModel())
	x, labels := xorData()
	if _, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels}); err != nil {
		t.Fatal(err)
	}
	// fc1: 2*4*2*8 = 128, fc2: 2*4*8*2 = 128, plus elementwise terms
	if e.LastForwardFLOPs < 256 {
		t.Fatalf("FLOPs = %d, want ≥ 256", e.LastForwardFLOPs)
	}
}

func TestFeedFetchTensor(t *testing.T) {
	e := MustNew(xorModel())
	w, err := e.Network().FetchTensor("w1")
	if err != nil {
		t.Fatal(err)
	}
	repl := tensor.Full(0.5, w.Shape()...)
	e.Network().FeedTensor("w1", repl)
	got, _ := e.Network().FetchTensor("w1")
	if got.Data()[0] != 0.5 {
		t.Fatal("feed did not replace tensor")
	}
	if _, err := e.Network().FetchTensor("nope"); err == nil {
		t.Fatal("expected error for unknown tensor")
	}
}

func TestSetTrainingPropagates(t *testing.T) {
	m := graph.NewModel("dp")
	m.AddInput("x", -1, 4)
	m.AddNode(graph.NewNode("Dropout", "d", []string{"x"}, []string{"y"},
		graph.FloatAttr("ratio", 0.5), graph.IntAttr("seed", 3)))
	m.AddOutput("y")
	e := MustNew(m)
	x := tensor.Full(1, 16, 4)
	e.SetTraining(false)
	out, _ := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x})
	if !tensor.AllClose(out["y"], x, 0, 0) {
		t.Fatal("inference dropout should be identity")
	}
	e.SetTraining(true)
	out, _ = e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x})
	if tensor.AllClose(out["y"], x, 0, 0) {
		t.Fatal("training dropout should perturb")
	}
}

func TestOpOverheadSlowsExecution(t *testing.T) {
	x, labels := xorData()
	feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
	fast := MustNew(xorModel())
	slow := MustNew(xorModel())
	slow.OpOverhead = 2 * time.Millisecond
	t0 := time.Now()
	fast.Inference(context.Background(), feeds)
	fastDur := time.Since(t0)
	t0 = time.Now()
	slow.Inference(context.Background(), feeds)
	slowDur := time.Since(t0)
	if slowDur < fastDur+5*time.Millisecond {
		t.Fatalf("overhead not applied: fast %v slow %v", fastDur, slowDur)
	}
}

// lenetWith returns LeNet with edit applied to its first node of type op.
func lenetWith(op string, edit func(m *graph.Model, n *graph.Node)) *graph.Model {
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 1})
	for _, n := range m.Nodes {
		if n.OpType == op {
			edit(m, n)
			break
		}
	}
	return m
}

// TestNewRejectsInconsistentShapes: New runs shape inference over the
// declared input shapes, so a model no pass could run is refused with the
// offending node named, before any operator sees a tensor. Each of these
// was accepted once and panicked its first pass, or New itself.
func TestNewRejectsInconsistentShapes(t *testing.T) {
	ints := func(name string, v ...int64) graph.Attribute {
		return graph.Attribute{Name: name, Type: graph.AttrInts, Ints: v}
	}
	for _, c := range []struct {
		name, want string
		m          *graph.Model
	}{
		{"rank-0 Gemm weight", `node "fc_8": Gemm: rank-2 inputs required`, lenetWith("Gemm", func(m *graph.Model, n *graph.Node) {
			m.AddInitializer("scalar_w", tensor.Scalar(1))
			n.Inputs[1] = "scalar_w"
		})},
		{"Conv bias of 0 values for 6 filters", `node "conv_1": Conv: bias [0] for 6 outputs`, lenetWith("Conv", func(m *graph.Model, n *graph.Node) {
			m.AddInitializer("empty_b", tensor.New(0))
			n.Inputs[2] = "empty_b"
		})},
		{"one-value kernel_shape", `node "pool_3": MaxPool: kernel_shape [2]`, lenetWith("MaxPool", func(m *graph.Model, n *graph.Node) {
			n.Attrs["kernel_shape"] = ints("kernel_shape", 2)
		})},
		{"zero stride", `node "pool_3": MaxPool: strides [0 0]`, lenetWith("MaxPool", func(m *graph.Model, n *graph.Node) {
			n.Attrs["strides"] = ints("strides", 0, 0)
		})},
		{"window past the padded input", `node "conv_4": Conv: 5x5 window over a 2x2 input`, lenetWith("MaxPool", func(m *graph.Model, n *graph.Node) {
			n.Attrs["kernel_shape"] = ints("kernel_shape", 14, 14)
			n.Attrs["strides"] = ints("strides", 14, 14)
		})},
	} {
		_, err := New(c.m)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
