package metrics

import (
	"context"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/tensor"
)

func TestFrameworkOverheadOnRealExecutor(t *testing.T) {
	m := graph.NewModel("tiny")
	rng := tensor.NewRNG(2)
	m.AddInput("x", -1, 16)
	m.AddInitializer("w", tensor.RandNormal(rng, 0, 0.1, 16, 16))
	m.AddNode(graph.NewNode("MatMul", "mm", []string{"x", "w"}, []string{"h"}))
	m.AddNode(graph.NewNode("Relu", "r", []string{"h"}, []string{"y"}))
	m.AddOutput("y")

	e := executor.MustNew(m)
	fo := NewFrameworkOverhead()
	e.Events = fo.Events()
	x := tensor.RandNormal(rng, 0, 1, 8, 16)
	for i := 0; i < 5; i++ {
		if _, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x}); err != nil {
			t.Fatal(err)
		}
	}
	sum := fo.Summarize()
	if sum.N != 5 {
		t.Fatalf("overhead samples = %d", sum.N)
	}
	if sum.Median < 0 || sum.Median > 1 {
		t.Fatalf("overhead fraction out of range: %v", sum.Median)
	}
	if fo.AbsoluteSampler.Summarize().N != 5 {
		t.Fatal("absolute overhead not sampled")
	}
}
