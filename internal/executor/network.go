// Package executor implements Deep500 Level 1: the Network abstraction over
// a D5NX graph, graph executors that run inference and backpropagation, the
// event ("hook") mechanism for fine-grained measurement and early exits, and
// a device memory model used to study out-of-memory behaviour (paper §IV-D).
//
// Public entry points: New, the Executor's Inference / InferenceAndBackprop
// methods behind the GraphExecutor interface, Network (parameters and
// gradients), PlanMemory (the static activation planner every inference
// pass runs out of), Events and MemoryModel. The executor runs nodes of the caller's graph in topological
// order on the calling goroutine — the paper's "verified yet slow"
// reference interpreter.
package executor

import (
	"fmt"
	"slices"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Network binds a graph.Model to live tensor state: current parameter
// values and, after a backward pass, parameter gradients, each set in one
// slab laid out in Params() order, of which every tensor handed out is a
// view. It exposes the fetch/feed tensor API the paper's Network class
// provides.
type Network struct {
	Model *graph.Model
	// names is the sorted parameter set, params and grads its views, and
	// pairs the gradients the last backward pass produced.
	names               []string
	params, grads       []*tensor.Tensor
	paramSlab, gradSlab *tensor.Tensor
	pairs               []ParamGrad
}

// NewNetwork wraps a model, laying its initializers out in one slab and
// pointing m.Initializers at the views, unless another network over m did
// so already: every network over a model then shares its parameters.
func NewNetwork(m *graph.Model) *Network {
	n := &Network{Model: m, names: m.ParamNames()}
	ts := make([]*tensor.Tensor, len(n.names))
	for i, name := range n.names {
		ts[i] = m.Initializers[name]
	}
	n.layout(ts)
	return n
}

// layout makes ts, one per name, the parameters, in place where they lie in
// one slab already. The gradient slab is laid out by the next backward
// pass, so an executor that only runs inference never allocates one.
func (n *Network) layout(ts []*tensor.Tensor) {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	slab := contiguous(ts, total)
	if slab == nil {
		slab = make([]float32, total)
		vs := views(slab, ts)
		for i, v := range vs {
			copy(v.Data(), ts[i].Data())
			n.Model.Initializers[n.names[i]] = v
		}
		ts = vs
	}
	n.params, n.paramSlab = ts, tensor.From(slab, total)
	n.grads, n.gradSlab, n.pairs = nil, nil, nil
}

// views returns tensors of ts' shapes lying back to back in slab.
func views(slab []float32, ts []*tensor.Tensor) []*tensor.Tensor {
	vs := make([]*tensor.Tensor, len(ts))
	off := 0
	for i, t := range ts {
		vs[i] = tensor.From(slab[off:off+t.Size()], t.Shape()...)
		off += t.Size()
	}
	return vs
}

// contiguous returns the slab ts lie in back to back, or nil. The views a
// layout makes keep the slab's capacity, so the first reaches all of it.
func contiguous(ts []*tensor.Tensor, total int) []float32 {
	var slab []float32
	off := 0
	for _, t := range ts {
		if d := t.Data(); len(d) > 0 {
			if slab == nil && cap(d) >= total {
				slab = d[:total]
			}
			if slab == nil || &slab[off] != &d[0] {
				return nil
			}
			off += len(d)
		}
	}
	return slab
}

// FetchTensor returns the named parameter tensor, a view into ParamSlab.
func (n *Network) FetchTensor(name string) (*tensor.Tensor, error) {
	i, ok := slices.BinarySearch(n.names, name)
	if !ok {
		return nil, fmt.Errorf("executor: network has no tensor %q", name)
	}
	return n.params[i], nil
}

// FeedTensor copies t's values into the named parameter. A new name or a
// new shape lays both slabs out again, replacing every view and dropping
// the last backward pass's gradients.
func (n *Network) FeedTensor(name string, t *tensor.Tensor) {
	i, known := slices.BinarySearch(n.names, name)
	if known && tensor.ShapeEq(n.params[i].Shape(), t.Shape()) {
		copy(n.params[i].Data(), t.Data())
		return
	}
	ts := slices.Clone(n.params)
	if known {
		ts[i] = t
	} else {
		// A fresh slice: holders of an earlier Params result keep theirs.
		n.names = slices.Insert(slices.Clone(n.names), i, name)
		ts = slices.Insert(ts, i, t)
	}
	n.layout(ts)
}

// Params returns parameter names in deterministic (sorted) order. The
// slice is shared between calls and must not be modified.
func (n *Network) Params() []string { return n.names }

// ParamSlab returns every parameter as one 1-D tensor sharing storage with
// the parameter views.
func (n *Network) ParamSlab() *tensor.Tensor { return n.paramSlab }

// GradSlab returns every gradient as one 1-D tensor in ParamSlab's layout,
// zero where the last backward pass gave none, or nil before the first.
// Ownership is as for Gradients.
func (n *Network) GradSlab() *tensor.Tensor { return n.gradSlab }

// Gradient returns the gradient of the named parameter from the last
// backward pass (nil if none). Ownership is as for Gradients.
func (n *Network) Gradient(name string) *tensor.Tensor {
	for _, pg := range n.pairs {
		if pg.Name == name {
			return pg.Grad
		}
	}
	return nil
}

// Gradients returns (param, grad) pairs for every parameter that received a
// gradient, in deterministic order — the analogue of network.gradient() in
// the paper's Listing 9.
//
// The gradients are views into GradSlab: they (and the returned slice) are
// valid until the next InferenceAndBackprop on the executor that owns this
// network, and may be overwritten in place until then, as the distributed
// gradient hooks do. Copy whatever must outlive the step.
func (n *Network) Gradients() []ParamGrad { return n.pairs }

// ParamGrad pairs a parameter tensor with its gradient.
type ParamGrad struct {
	Name  string
	Param *tensor.Tensor
	Grad  *tensor.Tensor
}
