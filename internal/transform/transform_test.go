package transform

import (
	"context"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

func convModel(batchDim int) *graph.Model {
	m := graph.NewModel("conv1")
	rng := tensor.NewRNG(1)
	m.AddInput("x", batchDim, 3, 16, 16)
	m.AddInitializer("w", tensor.RandNormal(rng, 0, 0.2, 8, 3, 3, 3))
	m.AddInitializer("b", tensor.New(8))
	m.AddNode(graph.NewNode("Conv", "c1", []string{"x", "w", "b"}, []string{"y"},
		graph.IntsAttr("strides", 1, 1), graph.IntsAttr("pads", 1, 1),
		graph.IntsAttr("kernel_shape", 3, 3)))
	m.AddOutput("y")
	return m
}

func TestPlanMicrobatchesCoversBatch(t *testing.T) {
	s := kernels.ConvShape{N: 1, C: 64, H: 32, W: 32, M: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	plan, err := PlanMicrobatches(s, 100, 8<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range plan {
		total += c.Size * c.Count
		ws := s
		ws.N = c.Size
		if ws.WorkspaceBytes(c.Algo) > 8<<20 {
			t.Fatalf("choice %+v violates memory budget", c)
		}
	}
	if total != 100 {
		t.Fatalf("plan covers %d of 100: %+v", total, plan)
	}
}

func TestPlanPrefersLargerMicrobatchesWithMoreMemory(t *testing.T) {
	s := kernels.ConvShape{N: 1, C: 32, H: 32, W: 32, M: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	tight, err := PlanMicrobatches(s, 64, s.WorkspaceBytes(kernels.ConvIm2Col)*2, nil)
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := PlanMicrobatches(s, 64, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(PlanSizes(tight)) <= len(PlanSizes(roomy)) {
		t.Fatalf("tight plan %v should have more chunks than roomy %v", PlanSizes(tight), PlanSizes(roomy))
	}
}

func TestPlanInfeasibleBudget(t *testing.T) {
	s := kernels.ConvShape{N: 1, C: 64, H: 64, W: 64, M: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// direct conv needs zero workspace, so even 1 byte is "feasible";
	// verify the plan falls back to direct.
	plan, err := PlanMicrobatches(s, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan {
		if c.Algo != kernels.ConvDirect {
			t.Fatalf("expected direct-only plan, got %+v", plan)
		}
	}
}

func TestApplyMicrobatchPreservesSemantics(t *testing.T) {
	// Output of the transformed graph must equal the original.
	rng := tensor.NewRNG(7)
	x := tensor.RandNormal(rng, 0, 1, 12, 3, 16, 16)

	orig := convModel(-1)
	e1 := executor.MustNew(orig)
	want, err := e1.Inference(context.Background(), map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}

	transformed := convModel(-1)
	node := transformed.FindNode("c1")
	plan := []MicrobatchChoice{
		{Size: 4, Algo: kernels.ConvDirect, Count: 1},
		{Size: 2, Algo: kernels.ConvWinograd, Count: 2},
		{Size: 4, Algo: kernels.ConvIm2Col, Count: 1},
	}
	if err := ApplyMicrobatch(transformed, node, plan); err != nil {
		t.Fatal(err)
	}
	if err := transformed.Validate(); err != nil {
		t.Fatal(err)
	}
	e2 := executor.MustNew(transformed)
	got, err := e2.Inference(context.Background(), map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got["y"], want["y"], 1e-3, 1e-3) {
		d := tensor.Compare(got["y"], want["y"])
		t.Fatalf("transformed output differs: linf=%g", d.LInf)
	}
}

func TestApplyMicrobatchSingleChunkSetsAlgo(t *testing.T) {
	m := convModel(-1)
	node := m.FindNode("c1")
	if err := ApplyMicrobatch(m, node, []MicrobatchChoice{{Size: 8, Algo: kernels.ConvWinograd, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if m.FindNode("c1") == nil {
		t.Fatal("single-chunk plan should keep the node")
	}
	if m.FindNode("c1").AttrString("algo", "") != "winograd" {
		t.Fatal("algo attribute not set")
	}
}

func TestMicrobatchModelReducesPeakMemory(t *testing.T) {
	// A conv whose full-batch im2col workspace exceeds the budget must be
	// split, and the transformed model must execute within a memory model
	// where the original OOMs on workspace.
	const batch = 32
	budget := int64(256 << 10) // 256 KiB workspace budget

	m := convModel(-1)
	n, err := MicrobatchModel(m, batch, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("transformed %d nodes", n)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	x := tensor.RandNormal(rng, 0, 1, batch, 3, 16, 16)
	e := executor.MustNew(m)
	if _, err := e.Inference(context.Background(), map[string]*tensor.Tensor{"x": x}); err != nil {
		t.Fatal(err)
	}
}

func TestMicrobatchModelSkipsSmallConvs(t *testing.T) {
	m := convModel(-1)
	n, err := MicrobatchModel(m, 2, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("small conv transformed (%d)", n)
	}
}

func TestStripDropoutPreservesOutput(t *testing.T) {
	cfg := models.Config{Classes: 10, Channels: 3, Height: 224, Width: 224, Seed: 3, WidthScale: 0.1}
	m := models.AlexNet(cfg)
	before := len(m.Nodes)
	removed := StripDropout(m)
	if removed != 2 {
		t.Fatalf("removed %d dropouts", removed)
	}
	if len(m.Nodes) != before-2 {
		t.Fatal("node count wrong")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
