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
	"sort"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Network binds a graph.Model to live tensor state: current parameter
// values and, after a backward pass, parameter gradients. It exposes the
// fetch/feed tensor API the paper's Network class provides.
type Network struct {
	Model  *graph.Model
	values map[string]*tensor.Tensor // parameters (initializers), mutable
	grads  map[string]*tensor.Tensor // parameter gradients from last backprop
	// names is the sorted key set of values, kept up to date by FeedTensor;
	// pairs is Gradients' reused result slice.
	names []string
	pairs []ParamGrad
}

// NewNetwork wraps a model. Parameter tensors are referenced, not copied,
// so external optimizers and the network observe the same state.
func NewNetwork(m *graph.Model) *Network {
	n := &Network{
		Model:  m,
		values: make(map[string]*tensor.Tensor, len(m.Initializers)),
		grads:  make(map[string]*tensor.Tensor),
	}
	for name, t := range m.Initializers {
		n.values[name] = t
		n.names = append(n.names, name)
	}
	sort.Strings(n.names)
	return n
}

// FetchTensor returns the named parameter tensor.
func (n *Network) FetchTensor(name string) (*tensor.Tensor, error) {
	t, ok := n.values[name]
	if !ok {
		return nil, fmt.Errorf("executor: network has no tensor %q", name)
	}
	return t, nil
}

// FeedTensor replaces the named parameter tensor.
func (n *Network) FeedTensor(name string, t *tensor.Tensor) {
	if _, known := n.values[name]; !known {
		// A fresh slice: holders of an earlier Params result keep theirs.
		n.names = append(slices.Clone(n.names), name)
		sort.Strings(n.names)
	}
	n.values[name] = t
	n.Model.Initializers[name] = t
}

// Params returns parameter names in deterministic (sorted) order. The slice
// is shared between calls and must not be modified.
func (n *Network) Params() []string { return n.names }

// Gradient returns the gradient of the named parameter from the last
// backward pass (nil if none). Ownership is as for Gradients.
func (n *Network) Gradient(name string) *tensor.Tensor { return n.grads[name] }

// Gradients returns (param, grad) pairs for every parameter that received a
// gradient, in deterministic order — the analogue of network.gradient() in
// the paper's Listing 9.
//
// The gradient tensors belong to the executor, which recycles them: they
// (and the returned slice) are valid until the next InferenceAndBackprop on
// the executor that owns this network, and may be overwritten in place until
// then, as the distributed gradient hooks do. Copy whatever must outlive the
// step.
func (n *Network) Gradients() []ParamGrad {
	n.pairs = n.pairs[:0]
	for _, name := range n.Params() {
		if g := n.grads[name]; g != nil {
			n.pairs = append(n.pairs, ParamGrad{Name: name, Param: n.values[name], Grad: g})
		}
	}
	return n.pairs
}

// ParamGrad pairs a parameter tensor with its gradient.
type ParamGrad struct {
	Name  string
	Param *tensor.Tensor
	Grad  *tensor.Tensor
}

// setGrad stores a parameter gradient (executor internal).
func (n *Network) setGrad(name string, g *tensor.Tensor) { n.grads[name] = g }

// ClearGradients drops all stored gradients.
func (n *Network) ClearGradients() { clear(n.grads) }
