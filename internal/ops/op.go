// Package ops implements Deep500 Level 0: individual operators with
// forward and backward (backpropagation) methods, the CustomOperator
// registration mechanism, and a factory that instantiates operators from
// D5NX graph nodes (paper §IV-C).
//
// The Operator interface mirrors the paper's CustomOperator: a forward
// function over input tensors and a backward function receiving the
// gradients of the outputs together with the forward inputs and outputs.
// Operators may cache intermediate state (pooling argmaxes, dropout masks,
// batch statistics) between a Forward call and the matching Backward call;
// they are therefore not safe for concurrent reuse — executors instantiate
// one operator per graph node.
//
// Public entry points: the Operator interface, Register / Registered /
// RegisteredOps (the D500_REGISTER_OP analogue), FromNode (the node →
// operator factory executors use), and the optional capability interfaces
// TrainingAware, AllocatorAware and GradMaskAware.
package ops

import (
	"fmt"
	"sort"
	"sync"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Operator is the Level 0 operator interface.
type Operator interface {
	// Name returns the operator's type name (e.g. "Conv").
	Name() string
	// Forward computes output tensors from input tensors.
	Forward(inputs []*tensor.Tensor) []*tensor.Tensor
	// Backward receives gradients w.r.t. each output plus the forward
	// inputs and outputs, and returns gradients w.r.t. each input. A nil
	// entry means "no gradient" (e.g. for integer label inputs).
	// An operator may return tensors it keeps and reuses — every built-in
	// one does (base's gradBuf), and reuses the returned slice too — so a
	// result is only valid until the same operator's next Backward.
	Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor
	// FLOPs estimates the forward floating-point work for the given inputs.
	FLOPs(inputs []*tensor.Tensor) int64
}

// TrainingAware is implemented by operators whose behaviour differs between
// training and inference (Dropout, BatchNormalization).
type TrainingAware interface {
	SetTraining(training bool)
}

// Builder constructs an operator from a graph node.
type Builder func(n *graph.Node) (Operator, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Builder)
)

// Register installs a Builder for an op type. It is the analogue of the
// paper's D500_REGISTER_OP: user code can register custom operators that
// then work in every executor and framework backend.
func Register(opType string, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[opType] = b
}

// RegisteredOps returns all op types with builders, sorted.
func RegisteredOps() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FromNode instantiates the operator described by a graph node.
func FromNode(n *graph.Node) (Operator, error) {
	registryMu.RLock()
	b, ok := registry[n.OpType]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ops: no builder registered for op type %q (node %q)", n.OpType, n.Name)
	}
	return b(n)
}

// Allocator hands out operator output tensors from a caller-managed store
// (the executor's memory plan) instead of the garbage collector.
type Allocator interface {
	// Get returns a zero-filled tensor of the given shape.
	Get(shape ...int) *tensor.Tensor
}

// AllocatorAware is implemented by operators that can draw their output
// tensors from a caller-provided allocator. The executor installs one on
// every operator that supports it, so a warm inference pass writes its
// activations into the memory plan's slab instead of allocating them.
//
// Contract relied on by the executor's static memory planner: an
// AllocatorAware operator requests each of its declared outputs through the
// allocator exactly once per Forward call, in output-declaration order. An
// output drawn any other way is left to the GC, and so are the inputs of
// its node, since it may be a view of one.
type AllocatorAware interface {
	SetAllocator(a Allocator)
}

// GradMaskAware is implemented by operators that can skip the gradients of
// inputs nobody reads. need[i] tells whether the gradient of input i is
// consumed; Backward may return nil for an input whose entry is false (the
// Operator.Backward contract already allows nil entries). The executor
// derives the mask from the graph — an input requires a gradient iff it is
// a trainable parameter or depends on one — so a model's data feed never
// costs a backward-data pass. A nil mask, the state of every operator used
// outside an executor, means every gradient is computed. Conv, Gemm and
// MatMul honour the mask; other operators ignore it. into[i], when not nil
// and of input i's shape, is the tensor Backward writes that gradient into
// in place of a buffer of its own: the executor passes a parameter's view
// into the network's gradient slab.
type GradMaskAware interface {
	SetGradMask(need []bool, into []*tensor.Tensor)
}

// base provides Name, default FLOPs and the output-allocation hook for
// simple operators.
type base struct {
	name  string
	alloc Allocator
	// outBuf is the reused single-output return slice (see out1); shapeBuf
	// is the reused output-shape slice (see shape).
	outBuf   []*tensor.Tensor
	shapeBuf []int
	// needGrad and gradInto are the installed GradMaskAware arguments.
	needGrad []bool
	gradInto []*tensor.Tensor
	// gradBufs are the tensors Backward hands out, one per slot, kept and
	// reused from call to call (see gradBuf); gradOut is the reused slice
	// that returns them (see grads).
	gradBufs []*tensor.Tensor
	gradOut  []*tensor.Tensor
}

func (b base) Name() string { return b.name }

// SetAllocator points the operator's output allocation at a.
func (b *base) SetAllocator(a Allocator) { b.alloc = a }

// SetGradMask installs the per-input requires-grad mask and destinations.
func (b *base) SetGradMask(need []bool, into []*tensor.Tensor) { b.needGrad, b.gradInto = need, into }

// newGrad returns the gradient tensor of input i, uncleared (see
// fullGrad), or nil when the installed mask says that gradient is not
// read. Conv and Gemm use it: their backward kernels overwrite every
// element.
func (b *base) newGrad(i int, shape ...int) *tensor.Tensor {
	if i < len(b.needGrad) && !b.needGrad[i] {
		return nil
	}
	return b.fullGrad(i, shape...)
}

// gradBuf returns the operator's own zeroed tensor for backward slot i
// (conventionally the gradient of input i): allocated on first use or when
// the shape changes, cleared and handed out again otherwise. Every built-in
// operator draws all its Backward creates from it, parameter gradients and
// batch-sized activation gradients alike, which is what keeps a warm
// training step from allocating, and it sets the lifetime of what they
// return: valid until the same operator's next Backward. An operator whose
// gradient equals its upstream one copies it into its own buffer rather
// than returning the upstream tensor, since the executor accumulates into
// a gradient in place (AddInPlace). Operators are bound one per node, so
// within a pass every node's gradients are distinct tensors.
func (b *base) gradBuf(i int, shape ...int) *tensor.Tensor {
	t, kept := b.keptGrad(i, shape)
	if kept {
		t.Zero()
	}
	return t
}

// fullGrad is gradBuf without the clearing, for a Backward that writes
// every element of the gradient.
func (b *base) fullGrad(i int, shape ...int) *tensor.Tensor {
	t, _ := b.keptGrad(i, shape)
	return t
}

// keptGrad returns slot i's tensor at shape, and whether it is the one a
// previous Backward handed out (a new one is zero-filled), or slot i's
// installed destination (slot i is input i's gradient wherever input i can
// be a parameter).
func (b *base) keptGrad(i int, shape []int) (*tensor.Tensor, bool) {
	if i < len(b.gradInto) && b.gradInto[i] != nil && tensor.ShapeEq(b.gradInto[i].Shape(), shape) {
		return b.gradInto[i], true
	}
	for len(b.gradBufs) <= i {
		b.gradBufs = append(b.gradBufs, nil)
	}
	t := b.gradBufs[i]
	if t == nil || !tensor.ShapeEq(t.Shape(), shape) {
		t = tensor.New(shape...)
		b.gradBufs[i] = t
		return t, false
	}
	return t, true
}

// gradCopy returns slot i's buffer (see fullGrad) at shape holding a copy of
// g, which has as many elements: the gradient of an operator that passes
// its upstream gradient through unchanged, or reshaped.
func (b *base) gradCopy(i int, g *tensor.Tensor, shape []int) *tensor.Tensor {
	t := b.fullGrad(i, shape...)
	copy(t.Data(), g.Data())
	return t
}

// grads returns the operator's reused Backward result slice holding ts, so
// Backward allocates no per-call slice (the executor consumes it before the
// node's next Backward, as it does out1's slice).
func (b *base) grads(ts ...*tensor.Tensor) []*tensor.Tensor {
	b.gradOut = append(b.gradOut[:0], ts...)
	return b.gradOut
}

// newOut allocates a forward-output tensor: from the installed allocator
// when one is set, from the GC otherwise.
func (b *base) newOut(shape ...int) *tensor.Tensor {
	if b.alloc != nil {
		return b.alloc.Get(shape...)
	}
	return tensor.New(shape...)
}

// out1 returns the operator's reused single-element output slice holding t,
// so single-output Forward methods allocate no per-call slice. The executor
// copies nothing but consumes the slice before the node's next Forward;
// operators are bound one-per-node, so the reuse is race-free.
func (b *base) out1(t *tensor.Tensor) []*tensor.Tensor {
	if b.outBuf == nil {
		b.outBuf = make([]*tensor.Tensor, 1)
	}
	b.outBuf[0] = t
	return b.outBuf
}

// outShape returns the operator's reused shape slice filled with dims.
// Forward methods that build output shapes from scalars pass
// o.newOut(o.outShape(m, n)...) so the variadic argument does not escape to
// the heap on every call (allocators copy the slice, never retain it).
func (b *base) outShape(dims ...int) []int {
	b.shapeBuf = append(b.shapeBuf[:0], dims...)
	return b.shapeBuf
}

// elementwiseFLOPs is the default estimate: one op per element.
func elementwiseFLOPs(inputs []*tensor.Tensor) int64 {
	if len(inputs) == 0 {
		return 0
	}
	return int64(inputs[0].Size())
}
