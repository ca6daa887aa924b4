package executor

import (
	"time"

	"deep500/internal/graph"
)

// Events is the hook set a graph executor invokes during complex actions
// (paper §IV-D: "Events are user-specified hooks called at certain points
// during backpropagation and training"). Any field may be nil. A metric
// can populate an Events value, as the paper suggests extending TestMetric
// and Event together (metrics.FrameworkOverhead does).
type Events struct {
	// BeforeOp/AfterOp wrap each node execution (forward direction).
	BeforeOp func(n *graph.Node)
	AfterOp  func(n *graph.Node, d time.Duration)
	// BeforeBackwardOp/AfterBackwardOp wrap each node's backward execution.
	BeforeBackwardOp func(n *graph.Node)
	AfterBackwardOp  func(n *graph.Node, d time.Duration)
	// BeforeInference/AfterInference wrap a whole forward pass.
	BeforeInference func()
	AfterInference  func(d time.Duration)
	// BeforeBackprop/AfterBackprop wrap a whole backward pass.
	BeforeBackprop func()
	AfterBackprop  func(d time.Duration)
	// Stop, if non-nil, is polled between nodes; returning true aborts the
	// pass early (the paper's "early stopping condition" example).
	Stop func() bool
}
