// Package frameworks emulates the DL frameworks the Deep500 paper
// integrates and benchmarks — TensorFlow, PyTorch and Caffe2 — as backend
// profiles over the shared kernel substrate, plus the bare-kernel
// "DeepBench" baseline (see DESIGN.md substitutions).
//
// Each profile reproduces the mechanisms behind the paper's observations:
//
//   - per-operator dispatch overhead (TF highest, PyTorch lowest —
//     Fig. 6's framework ordering; DeepBench has none),
//   - operator granularity and fusion (cf2go ships fused optimizer
//     kernels, tfgo composes many small ops — Use Case 1),
//   - split/concat semantics (tfgo materializes copies, torchgo uses
//     views — the Fig. 7 asymmetry),
//   - a device memory model (capacity + allocator overhead — the
//     AlexNet OOM of §V-C).
//
// Fig. 12's ≈10× gap between "Python" reference bindings and "C++"
// operators comes from the message-passing cost models of the level-3
// experiments (cppProfile and pythonProfile in internal/core), not from a
// backend profile.
//
// Backends are built from D5NX models through the graph Visitor, exactly
// as the paper converts ONNX models into framework networks (Fig. 4).
package frameworks

import (
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/ops"
)

// Profile describes one emulated framework backend.
type Profile struct {
	// Name identifies the backend ("tfgo", "torchgo", "cf2go", "deepbench").
	Name string
	// DisplayName is the paper-facing label.
	DisplayName string
	// OpOverhead is the per-operator dispatch cost.
	OpOverhead time.Duration
	// MemoryCapacity is device memory in bytes (0 = unlimited).
	MemoryCapacity int64
	// AllocOverhead multiplies allocations (allocator slack).
	AllocOverhead float64
	// SplitConcatCopies: Split/Concat materialize extra buffer copies (the
	// TensorFlow behaviour the paper blames for the Fig. 7 slowdown).
	SplitConcatCopies bool
	// ViewSplit: Split returns zero-copy views (PyTorch-style).
	ViewSplit bool
	// FusedOptimizers: the backend provides single-kernel optimizer
	// updates (Caffe2's Adam operator).
	FusedOptimizers bool
	// DefaultConvAlgo is used when a Conv node has no explicit algorithm.
	DefaultConvAlgo kernels.ConvAlgo
	// Eager reports define-by-run execution (vs deferred graphs); recorded
	// for the capability table.
	Eager bool
}

// The four built-in profiles. Overheads are calibrated for CPU-scale
// kernels: they keep the paper's ordering (DeepBench < torchgo < cf2go <
// tfgo) and visible-but-small gaps.
var (
	// DeepBench is the bare-kernel baseline: direct kernel invocation with
	// no graph, no dispatch, no instrumentation.
	DeepBench = Profile{
		Name: "deepbench", DisplayName: "DeepBench",
		DefaultConvAlgo: kernels.ConvIm2Col,
		AllocOverhead:   1.0,
	}
	// TFGo emulates TensorFlow: deferred graphs, many small composed ops,
	// the highest dispatch overhead, copies on split/concat.
	TFGo = Profile{
		Name: "tfgo", DisplayName: "TensorFlow (emulated)",
		OpOverhead:        150 * time.Microsecond,
		MemoryCapacity:    16 << 30,
		AllocOverhead:     1.10,
		SplitConcatCopies: true,
		DefaultConvAlgo:   kernels.ConvIm2Col,
	}
	// TorchGo emulates PyTorch: eager execution, lowest framework
	// dispatch overhead, view-based splits, hungrier allocator (caching
	// allocator overhead → earlier OOM, §V-C).
	TorchGo = Profile{
		Name: "torchgo", DisplayName: "PyTorch (emulated)",
		OpOverhead:      30 * time.Microsecond,
		MemoryCapacity:  16 << 30,
		AllocOverhead:   1.30,
		ViewSplit:       true,
		DefaultConvAlgo: kernels.ConvIm2Col,
		Eager:           true,
	}
	// CF2Go emulates Caffe2: deferred graphs, moderate overhead, fused
	// optimizer kernels.
	CF2Go = Profile{
		Name: "cf2go", DisplayName: "Caffe2 (emulated)",
		OpOverhead:      80 * time.Microsecond,
		MemoryCapacity:  16 << 30,
		AllocOverhead:   1.05,
		FusedOptimizers: true,
		DefaultConvAlgo: kernels.ConvIm2Col,
	}
)

// All returns the built-in profiles in display order.
func All() []Profile { return []Profile{CF2Go, TFGo, TorchGo, DeepBench} }

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// NewExecutor builds an executor for the model under this profile,
// converting the model through the graph Visitor into backend-specific
// operator instances.
func (p Profile) NewExecutor(m *graph.Model) (*executor.Executor, error) {
	e, err := executor.New(m)
	if err != nil {
		return nil, err
	}
	e.OpOverhead = p.OpOverhead
	if p.MemoryCapacity > 0 {
		mm := executor.NewMemoryModel(p.MemoryCapacity)
		if p.AllocOverhead > 0 {
			mm.AllocOverhead = p.AllocOverhead
		}
		e.Memory = mm
	}

	v := graph.NewVisitor()
	v.Default = func(_ *graph.Model, n *graph.Node) error { return nil }
	v.On("Conv", func(_ *graph.Model, n *graph.Node) error {
		if _, has := n.Attr("algo"); has {
			return nil // explicit choice (e.g. micro-batch plan) wins
		}
		conv, ok := e.Op(n).(*ops.Conv2DOp)
		if !ok {
			return nil
		}
		conv.Algo = p.DefaultConvAlgo
		return nil
	})
	v.On("Split", func(_ *graph.Model, n *graph.Node) error {
		base := e.Op(n)
		switch {
		case p.ViewSplit:
			if sp, ok := base.(*ops.SplitOp); ok {
				e.SetOp(n, &ViewSplitOp{Sizes: sp.Sizes})
			}
		case p.SplitConcatCopies:
			e.SetOp(n, &CopyAmplified{Inner: base})
		}
		return nil
	})
	v.On("Concat", func(_ *graph.Model, n *graph.Node) error {
		if p.SplitConcatCopies {
			e.SetOp(n, &CopyAmplified{Inner: e.Op(n)})
		}
		return nil
	})
	if err := v.Walk(m); err != nil {
		return nil, err
	}
	return e, nil
}
