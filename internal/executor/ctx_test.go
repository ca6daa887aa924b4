package executor

import (
	"context"
	"errors"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// wideModel builds a graph of independent Relu towers merged by one Sum.
func wideModel(towers, depth int) *graph.Model {
	m := graph.NewModel("wide")
	m.AddInput("x", -1, 8)
	var outs []string
	for b := 0; b < towers; b++ {
		prev := "x"
		for d := 0; d < depth; d++ {
			out := nodeName("t", b, d)
			m.AddNode(graph.NewNode("Relu", out+"_n", []string{prev}, []string{out}))
			prev = out
		}
		outs = append(outs, prev)
	}
	m.AddNode(graph.NewNode("Sum", "merge", outs, []string{"y"}))
	m.AddOutput("y")
	return m
}

func nodeName(p string, b, d int) string {
	return p + string(rune('a'+b)) + string(rune('a'+d))
}

// cancelAfterOps returns Events whose BeforeOp hook cancels the context
// after n operator dispatches — a deterministic mid-graph cancellation.
func cancelAfterOps(cancel context.CancelFunc, n int) *Events {
	var seen int
	return &Events{BeforeOp: func(*graph.Node) {
		if seen++; seen == n {
			cancel()
		}
	}}
}

func TestSequentialCancelMidGraph(t *testing.T) {
	e := MustNew(wideModel(4, 6))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Events = cancelAfterOps(cancel, 3)
	feeds := map[string]*tensor.Tensor{"x": tensor.Full(1, 2, 8)}
	_, err := e.Inference(ctx, feeds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The executor must stay usable for the next (uncancelled) pass.
	e.Events = nil
	if _, err := e.Inference(context.Background(), feeds); err != nil {
		t.Fatalf("pass after cancellation failed: %v", err)
	}
}

func TestExpiredDeadlineRejectsPass(t *testing.T) {
	e := MustNew(wideModel(2, 2))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Inference(ctx, map[string]*tensor.Tensor{"x": tensor.Full(1, 2, 8)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestBackpropCancelBetweenNodes(t *testing.T) {
	e := MustNew(xorModel())
	e.SetTraining(true)
	x, labels := xorData()
	feeds := map[string]*tensor.Tensor{"x": x, "labels": labels}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel after the forward pass completes: the backward loop's ctx
	// check must abort backprop.
	e.Events = &Events{BeforeBackprop: cancel}
	_, err := e.InferenceAndBackprop(ctx, feeds, "l")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from backward pass, got %v", err)
	}
}
