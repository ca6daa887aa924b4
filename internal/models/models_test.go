package models

import (
	"context"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/tensor"
)

func mnistCfg(head bool) Config {
	return Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: head, Seed: 1}
}

func cifarCfg(head bool) Config {
	return Config{Classes: 10, Channels: 3, Height: 32, Width: 32, WithHead: head, Seed: 1}
}

func validateAndInfer(t *testing.T, m *graph.Model, batch int) map[string][]int {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	shapes, err := m.InferShapes(batch)
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return shapes
}

func TestMLPStructure(t *testing.T) {
	m := MLP(mnistCfg(true), 128, 64)
	shapes := validateAndInfer(t, m, 4)
	logits := m.Outputs[0]
	if !tensor.ShapeEq(shapes[logits], []int{4, 10}) {
		t.Fatalf("logits shape %v", shapes[logits])
	}
}

func TestLeNetStructure(t *testing.T) {
	m := LeNet(mnistCfg(true))
	shapes := validateAndInfer(t, m, 2)
	if !tensor.ShapeEq(shapes[m.Outputs[0]], []int{2, 10}) {
		t.Fatalf("logits %v", shapes[m.Outputs[0]])
	}
}

func TestAlexNetStructure(t *testing.T) {
	cfg := Config{Classes: 1000, Channels: 3, Height: 224, Width: 224, Seed: 1, WidthScale: 0.25}
	m := AlexNet(cfg)
	shapes := validateAndInfer(t, m, 1)
	if !tensor.ShapeEq(shapes[m.Outputs[0]], []int{1, 1000}) {
		t.Fatalf("logits %v", shapes[m.Outputs[0]])
	}
}

func TestResNetDepths(t *testing.T) {
	for _, depth := range []int{18, 34, 50, 8, 20} {
		cfg := cifarCfg(false)
		cfg.WidthScale = 0.125
		cfg.BatchNorm = true
		m := ResNet(depth, cfg)
		validateAndInfer(t, m, 2)
	}
}

func TestResNetImageNetStem(t *testing.T) {
	cfg := Config{Classes: 100, Channels: 3, Height: 224, Width: 224, Seed: 2, WidthScale: 0.0625}
	m := ResNet(18, cfg)
	shapes := validateAndInfer(t, m, 1)
	if !tensor.ShapeEq(shapes[m.Outputs[0]], []int{1, 100}) {
		t.Fatalf("logits %v", shapes[m.Outputs[0]])
	}
}

func TestWideResNetStructure(t *testing.T) {
	cfg := cifarCfg(false)
	cfg.WidthScale = 0.25
	m := WideResNet(16, 2, cfg)
	validateAndInfer(t, m, 2)
}

func TestResNet50HasBottlenecks(t *testing.T) {
	cfg := cifarCfg(false)
	cfg.WidthScale = 0.125
	r18 := ResNet(18, cfg)
	r50 := ResNet(50, cfg)
	if len(r50.Nodes) <= len(r18.Nodes) {
		t.Fatalf("ResNet-50 (%d nodes) should be deeper than ResNet-18 (%d)", len(r50.Nodes), len(r18.Nodes))
	}
	if r50.ParamCount() <= r18.ParamCount() {
		t.Fatalf("param counts: r50=%d r18=%d", r50.ParamCount(), r18.ParamCount())
	}
}

func TestModelsRunForwardAndBackward(t *testing.T) {
	rng := tensor.NewRNG(3)
	cases := []*graph.Model{
		MLP(mnistCfg(true), 32),
		LeNet(mnistCfg(true)),
	}
	scaled := cifarCfg(true)
	scaled.WidthScale = 0.25
	scaled.BatchNorm = true
	cases = append(cases, ResNet(8, scaled))
	for _, m := range cases {
		e, err := executor.New(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		e.SetTraining(true)
		var c, h, w int
		for _, in := range m.Inputs {
			if in.Name == "x" {
				c, h, w = in.Shape[1], in.Shape[2], in.Shape[3]
			}
		}
		batch := 2
		x := tensor.RandNormal(rng, 0, 1, batch, c, h, w)
		labels := tensor.From([]float32{0, 1}, batch)
		out, err := e.InferenceAndBackprop(context.Background(), map[string]*tensor.Tensor{"x": x, "labels": labels}, "loss")
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if out["loss"] == nil || out["loss"].HasNaN() {
			t.Fatalf("%s: bad loss %v", m.Name, out["loss"])
		}
		if len(e.Network().Gradients()) == 0 {
			t.Fatalf("%s: no gradients", m.Name)
		}
	}
}

func TestWidthScaleReducesParams(t *testing.T) {
	full := LeNet(mnistCfg(false))
	cfg := mnistCfg(false)
	cfg.WidthScale = 0.5
	half := LeNet(cfg)
	if half.ParamCount() >= full.ParamCount() {
		t.Fatalf("scale 0.5: %d ≥ %d", half.ParamCount(), full.ParamCount())
	}
}

func TestSerializationOfModelZoo(t *testing.T) {
	m := LeNet(mnistCfg(true))
	path := t.TempDir() + "/lenet.d5nx"
	if err := graph.Save(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParamCount() != m.ParamCount() {
		t.Fatal("params lost in round trip")
	}
	if _, err := executor.New(got); err != nil {
		t.Fatalf("loaded model does not execute: %v", err)
	}
}

// TestByName builds every name the command-line tools accept, in any case,
// and refuses any other.
func TestByName(t *testing.T) {
	for _, name := range []string{"mlp", "LeNet", "resnet8", "resnet18", "WRN16"} {
		m, err := ByName(name, cifarCfg(false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		validateAndInfer(t, m, 2)
	}
	if _, err := ByName("alexnet", mnistCfg(false)); err == nil {
		t.Fatal("alexnet is not a command-line name, want an error")
	}
}
