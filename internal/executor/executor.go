package executor

import (
	"context"
	"fmt"
	"slices"
	"time"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/obs/trace"
	"deep500/internal/ops"
	"deep500/internal/tensor"
)

// GraphExecutor controls DNN execution: inference, and inference combined
// with backpropagation (paper §IV-D). Implementations include the reference
// executor in this package and the emulated framework backends in
// internal/frameworks. Every execution entry point takes a context: passes
// observe cancellation and deadlines between operator invocations and
// return the context's error.
type GraphExecutor interface {
	// Network returns the executed network.
	Network() *Network
	// Inference runs a forward pass with the given input feeds and returns
	// the model's declared outputs in a fresh map the caller owns, as it
	// owns the tensors in it.
	Inference(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
	// InferenceAndBackprop runs forward and backward from the named loss
	// tensor; parameter gradients are afterwards available on the Network.
	InferenceAndBackprop(ctx context.Context, feeds map[string]*tensor.Tensor, loss string) (map[string]*tensor.Tensor, error)
	// SetTraining switches training-dependent operators (dropout, batch
	// normalization) between training and inference behaviour.
	SetTraining(training bool)
	// Training reports the current mode, so evaluation helpers can
	// restore whatever mode the executor was in.
	Training() bool
}

// Executor is the Deep500 reference graph executor: an interpreter that runs
// Level 0 operators one after another in topological order on the calling
// goroutine (the paper positions reference code as "verified yet slow";
// operators parallelize inside their kernels). It supports the full event,
// memory-model and instrumentation surface. From the third inference or
// training pass at a set of feed shapes on, passes run out of a static
// memory plan for those shapes and that kind of pass (memplan.go), so a
// warm pass allocates only the outputs it returns. An Executor is
// single-goroutine: concurrent passes need one executor each, as the serve
// replicas have.
type Executor struct {
	net     *Network
	order   []*graph.Node
	nodeOps map[*graph.Node]ops.Operator
	// gradMask holds, per node, which inputs require a gradient (see
	// requiresGrad), and gradInto where a parameter's gradient goes (see
	// setGradInto); both are installed on every GradMaskAware operator.
	gradMask map[*graph.Node][]bool
	gradInto map[*graph.Node][]*tensor.Tensor

	// Events receives hook callbacks; nil disables instrumentation.
	Events *Events
	// Memory, when non-nil, enforces a device-memory capacity.
	Memory *MemoryModel
	// OpOverhead adds a fixed dispatch cost per operator invocation; the
	// framework emulation layer uses it to model runtime dispatch costs.
	OpOverhead time.Duration

	// The activation allocator (memplan.go): allocs holds each node's, mode
	// says how the running pass draws outputs, cur is the entry for the
	// running pass's feed shapes and kind, plans remembers recent sets of
	// feed shapes with their plans, and slab backs all the plans. pass
	// counts passes; it is also the LRU clock.
	allocs map[*graph.Node]*nodeAlloc
	mode   allocMode
	cur    *shapePlan
	plans  []*shapePlan
	slab   []float32
	pass   uint64

	training bool
	// last forward pass state. The maps are allocated once and cleared per
	// pass; nodeInBuf caches each node's input-gather slice so steady-state
	// passes do not allocate per node.
	values    map[string]*tensor.Tensor
	nodeIns   map[*graph.Node][]*tensor.Tensor
	nodeOuts  map[*graph.Node][]*tensor.Tensor
	nodeInBuf map[*graph.Node][]*tensor.Tensor
	// Backward-pass storage, allocated once and reused every step (the
	// operators keep their gradient tensors the same way, ops.base.gradBuf,
	// and the forward activations come from the training plan), so a warm
	// training step allocates nothing that scales with the model:
	// gradOf maps a value to its gradient during a pass, lossSeed is the
	// all-ones gradient of the loss, and nodeBwd holds each node's gradOuts
	// slice and the zero tensors standing in for outputs without a gradient.
	gradOf   map[string]*tensor.Tensor
	lossSeed *tensor.Tensor
	nodeBwd  map[*graph.Node]*bwdScratch
	// passSpan is the current forward pass's trace span (nil when the pass
	// is untraced — the common case, costing execNode one nil check).
	passSpan *trace.Span
	// LastForwardFLOPs is the operator-reported FLOP total of the most
	// recent forward pass.
	LastForwardFLOPs int64
	// lastActivationBytes is the activation memory charged to the memory
	// model by the most recent forward pass, released by endPass.
	lastActivationBytes int64
}

// New builds a reference executor for the model. It validates the graph,
// instantiates one operator per node and fails on unknown op types. The
// executor runs m itself: its network points m's initializers at its
// parameter slab (NewNetwork), so training through the executor updates m.
func New(m *graph.Model) (*Executor, error) {
	e := &Executor{nodeOps: make(map[*graph.Node]ops.Operator)}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	order, err := m.TopoSort()
	if err != nil {
		return nil, err
	}
	// A model whose declared shapes no pass could run (a Gemm on a rank-0
	// weight, a bias of the wrong length, a zero stride) is refused here,
	// not by a panic in its first pass. InferShapes resolves a dynamic
	// leading (batch) dimension only, so a model declaring another dynamic
	// dimension is refused too.
	if _, err := m.InferShapes(1); err != nil {
		return nil, err
	}
	e.net = NewNetwork(m)
	e.order = order
	e.gradMask = requiresGrad(m, order)
	e.newAllocs()
	for _, n := range order {
		op, err := ops.FromNode(n)
		if err != nil {
			return nil, err
		}
		e.SetOp(n, op)
	}
	e.nodeInBuf = make(map[*graph.Node][]*tensor.Tensor, len(e.order))
	return e, nil
}

// MustNew is New, panicking on error; for tests and examples.
func MustNew(m *graph.Model) *Executor {
	e, err := New(m)
	if err != nil {
		panic(err)
	}
	return e
}

// Network returns the live network.
func (e *Executor) Network() *Network { return e.net }

// Training reports whether the executor is in training mode.
func (e *Executor) Training() bool { return e.training }

// SetTraining propagates the training flag to all training-aware operators.
func (e *Executor) SetTraining(training bool) {
	e.training = training
	for _, op := range e.nodeOps {
		if ta, ok := op.(ops.TrainingAware); ok {
			ta.SetTraining(training)
		}
	}
}

// Op returns the operator instance bound to a node (used by transforms and
// ablation benchmarks to tweak per-node algorithms).
func (e *Executor) Op(n *graph.Node) ops.Operator { return e.nodeOps[n] }

// SetOp replaces the operator bound to a node. The framework emulation
// layer uses this (via the graph visitor) to install backend-specific
// operator implementations, mirroring the paper's visitor-based network
// construction (Fig. 4). The node's requires-grad mask and its output
// allocator are installed on the new operator when it can use them.
func (e *Executor) SetOp(n *graph.Node, op ops.Operator) {
	if ga, ok := op.(ops.GradMaskAware); ok {
		ga.SetGradMask(e.gradMask[n], e.gradInto[n])
	}
	if aa, ok := op.(ops.AllocatorAware); ok && e.allocs[n] != nil {
		aa.SetAllocator(e.allocs[n])
	}
	e.nodeOps[n] = op
}

// setGradInto lays the network's gradient slab out and points the
// gradient of each parameter read by one node input only at its view, for
// the operator to write in place. Any other parameter gradient is copied
// there after the pass.
func (e *Executor) setGradInto() {
	e.net.gradSlab = tensor.New(e.net.paramSlab.Size())
	e.net.grads = views(e.net.gradSlab.Data(), e.net.params)
	reads := make(map[string]int)
	for _, n := range e.order {
		for _, name := range n.Inputs {
			reads[name]++
		}
	}
	e.gradInto = make(map[*graph.Node][]*tensor.Tensor, len(e.order))
	for _, n := range e.order {
		e.gradInto[n] = make([]*tensor.Tensor, len(n.Inputs))
		for j, name := range n.Inputs {
			if i, ok := slices.BinarySearch(e.net.names, name); ok && reads[name] == 1 {
				e.gradInto[n][j] = e.net.grads[i]
			}
		}
		if op, ok := e.nodeOps[n].(ops.GradMaskAware); ok {
			op.SetGradMask(e.gradMask[n], e.gradInto[n])
		}
	}
}

// requiresGrad is the build-time analysis that lets backpropagation skip
// gradients nobody reads. A value requires a gradient iff it is a trainable
// parameter (an initializer of the model) or the output of a node with such
// an input; everything else — the data feed, labels, and whatever is
// computed from them alone — cannot reach a parameter gradient, which is all
// InferenceAndBackprop publishes. The result maps each node to a per-input
// mask in the order of n.Inputs.
func requiresGrad(m *graph.Model, order []*graph.Node) map[*graph.Node][]bool {
	needs := make(map[string]bool, len(m.Initializers))
	for name := range m.Initializers {
		needs[name] = true
	}
	masks := make(map[*graph.Node][]bool, len(order))
	for _, n := range order {
		mask := make([]bool, len(n.Inputs))
		reachesParam := false
		for i, name := range n.Inputs {
			mask[i] = needs[name]
			reachesParam = reachesParam || mask[i]
		}
		if reachesParam {
			for _, name := range n.Outputs {
				needs[name] = true
			}
		}
		masks[n] = mask
	}
	return masks
}

func (e *Executor) spinOverhead() {
	if e.OpOverhead <= 0 {
		return
	}
	deadline := time.Now().Add(e.OpOverhead)
	for time.Now().Before(deadline) {
	}
}

// forward runs the forward pass — every node in topological order, the
// context checked before each — populating e.values/nodeIns/nodeOuts. A nil
// ctx is treated as context.Background() so pre-context call sites that pass
// nil stay safe.
func (e *Executor) forward(ctx context.Context, feeds map[string]*tensor.Tensor) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ev := e.Events
	if ev != nil && ev.BeforeInference != nil {
		ev.BeforeInference()
	}
	start := time.Now()
	e.pass++

	if parent := trace.FromContext(ctx); parent != nil {
		e.passSpan = parent.StartChild("exec.forward",
			trace.Bool("plan", e.mode == allocPlanned),
			trace.Int("nodes", len(e.order)))
	}

	if e.values == nil {
		e.values = make(map[string]*tensor.Tensor, len(e.order)*2)
		e.nodeIns = make(map[*graph.Node][]*tensor.Tensor, len(e.order))
		e.nodeOuts = make(map[*graph.Node][]*tensor.Tensor, len(e.order))
	} else {
		clear(e.values)
		clear(e.nodeIns)
		clear(e.nodeOuts)
	}
	e.LastForwardFLOPs = 0
	e.lastActivationBytes = 0

	for name, t := range feeds {
		e.values[name] = t
	}
	for i, name := range e.net.names {
		e.values[name] = e.net.params[i]
	}

	var err error
	for _, n := range e.order {
		if err = ctx.Err(); err != nil {
			break
		}
		if ev != nil && ev.Stop != nil && ev.Stop() {
			break
		}
		if err = e.execNode(n); err != nil {
			break
		}
	}

	if ps := e.passSpan; ps != nil {
		ps.AddAttrs(trace.Int("flops", int(e.LastForwardFLOPs)))
		ps.SetError(err)
		ps.End()
		e.passSpan = nil
	}
	if err == nil && ev != nil && ev.AfterInference != nil {
		ev.AfterInference(time.Since(start))
	}
	// The enclosing pass ends it with endPass.
	return err
}

// execNode runs one node: gather inputs, invoke the operator, publish
// outputs.
func (e *Executor) execNode(n *graph.Node) error {
	ev := e.Events
	op := e.nodeOps[n]

	ins := e.nodeInBuf[n]
	if ins == nil {
		ins = make([]*tensor.Tensor, len(n.Inputs))
		e.nodeInBuf[n] = ins
	}
	for i, name := range n.Inputs {
		if name == "" {
			ins[i] = nil
			continue
		}
		t, ok := e.values[name]
		if !ok {
			return fmt.Errorf("executor: node %q input %q not available (missing feed?)", n.Name, name)
		}
		ins[i] = t
	}
	// Workspace accounting for convolutions.
	var workspace int64
	conv, _ := op.(*ops.Conv2DOp)
	if conv != nil && e.Memory != nil {
		x, w := ins[0], ins[1]
		cs := kernels.ConvShape{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3),
			M: w.Dim(0), KH: w.Dim(2), KW: w.Dim(3),
			StrideH: conv.StrideH, StrideW: conv.StrideW, PadH: conv.PadH, PadW: conv.PadW}
		workspace = cs.WorkspaceBytes(conv.Algo)
		if err := e.Memory.Alloc(workspace); err != nil {
			return err
		}
	}

	if ev != nil && ev.BeforeOp != nil {
		ev.BeforeOp(n)
	}
	var opSpan *trace.Span
	if ps := e.passSpan; ps != nil {
		opSpan = ps.StartChild("op:"+n.OpType, trace.String("node", n.Name))
	}
	opStart := time.Now()
	e.spinOverhead()
	outs := op.Forward(ins)
	opDur := time.Since(opStart)
	if opSpan != nil {
		opSpan.AddAttrs(opSpanAttrs(conv, outs)...)
		opSpan.End()
	}
	if ev != nil && ev.AfterOp != nil {
		ev.AfterOp(n, opDur)
	}

	if workspace > 0 {
		e.Memory.Free(workspace)
	}
	e.LastForwardFLOPs += op.FLOPs(ins)
	for i, name := range n.Outputs {
		if i >= len(outs) {
			break
		}
		if e.Memory != nil {
			if err := e.Memory.Alloc(outs[i].Bytes()); err != nil {
				return err
			}
			e.lastActivationBytes += outs[i].Bytes()
		}
		e.values[name] = outs[i]
	}
	e.nodeIns[n] = ins
	e.nodeOuts[n] = outs
	return nil
}

// opSpanAttrs builds a traced op span's attributes: output shape and, for
// convolutions, the kernel algorithm. Only called on traced passes, so the
// allocations here never touch the untraced fast path.
func opSpanAttrs(conv *ops.Conv2DOp, outs []*tensor.Tensor) []trace.Attr {
	attrs := make([]trace.Attr, 0, 2)
	if len(outs) > 0 && outs[0] != nil {
		attrs = append(attrs, trace.String("shape", fmt.Sprint(outs[0].Shape())))
	}
	if conv != nil {
		attrs = append(attrs, trace.String("algo", conv.Algo.String()))
	}
	return attrs
}

// endPass returns the activation bytes the pass charged to the memory model
// and points operator output allocation back at the GC.
func (e *Executor) endPass() {
	e.Memory.Free(e.lastActivationBytes)
	e.lastActivationBytes = 0
	e.mode, e.cur = allocRecord, nil
}

// Inference runs a forward pass and returns the model's declared outputs in
// a fresh map. The outputs belong to the caller: no later pass touches them.
// The pass runs out of the memory plan for the feeds' shapes once it has
// one: the first pass at new shapes runs on GC tensors, the second profiles
// and plans them. Cancelling ctx aborts the pass between node executions and
// returns the context's error.
func (e *Executor) Inference(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	defer e.endPass()
	if err := e.plannedForward(ctx, feeds, false); err != nil {
		return nil, err
	}
	return e.collectOutputs(), nil
}

// plannedForward runs the forward pass out of the plan for the feeds'
// shapes and the pass kind (train: InferenceAndBackprop) when there is
// one, then remembers, plans or refreshes that entry (memplan.go). The
// caller ends the pass with endPass.
func (e *Executor) plannedForward(ctx context.Context, feeds map[string]*tensor.Tensor, train bool) error {
	key := feedKey(feeds)
	e.cur = e.planFor(key, train, feeds)
	if e.cur != nil && e.cur.plan != nil {
		e.mode = allocPlanned
	}
	if err := e.forward(ctx, feeds); err != nil {
		return err
	}
	switch {
	case e.cur == nil:
		e.remember(key, train, feeds)
	case e.cur.stale:
		e.forget(e.cur) // an activation shape drifted: start over next time
	case e.cur.plan == nil:
		e.cur.lastUse = e.pass
		e.addPlan(e.cur)
	default:
		e.cur.lastUse = e.pass
	}
	return nil
}

func (e *Executor) collectOutputs() map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(e.net.Model.Outputs))
	for _, name := range e.net.Model.Outputs {
		if t, ok := e.values[name]; ok {
			out[name] = t
		}
	}
	return out
}

// bwdScratch is one node's reused backward-pass storage.
type bwdScratch struct {
	gradOuts []*tensor.Tensor
	zeros    []*tensor.Tensor // zeros[j] stands in when output j got no gradient
}

// InferenceAndBackprop runs forward then backpropagates from the named loss
// tensor. Parameter gradients become available via Network().Gradients(),
// in the network's gradient slab, until the next InferenceAndBackprop
// (see Network.Gradients). The forward pass runs out
// of the training plan for the feeds' shapes once it has one, a plan that
// keeps every activation to the end of the pass, since the backward pass
// reads them after their last forward consumer. Cancelling ctx aborts
// either pass between node executions and returns the context's error.
func (e *Executor) InferenceAndBackprop(ctx context.Context, feeds map[string]*tensor.Tensor, loss string) (map[string]*tensor.Tensor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer e.endPass()
	if err := e.plannedForward(ctx, feeds, true); err != nil {
		return nil, err
	}

	lossT, ok := e.values[loss]
	if !ok {
		return nil, fmt.Errorf("executor: loss tensor %q not produced by forward pass", loss)
	}
	ev := e.Events
	if ev != nil && ev.BeforeBackprop != nil {
		ev.BeforeBackprop()
	}
	start := time.Now()
	bwdSpan := trace.FromContext(ctx).StartChild("exec.backward", trace.Int("nodes", len(e.order)))

	if e.gradOf == nil {
		e.gradOf = make(map[string]*tensor.Tensor, len(e.order)*2)
		e.nodeBwd = make(map[*graph.Node]*bwdScratch, len(e.order))
	}
	// The map and the per-node slices are emptied when the pass ends, not
	// when the next one starts: every gradient they reference belongs to an
	// operator, valid only until that operator's next Backward.
	gradOf := e.gradOf
	defer clear(gradOf)
	if e.lossSeed == nil || !tensor.SameShape(e.lossSeed, lossT) {
		e.lossSeed = tensor.New(lossT.Shape()...)
	}
	e.lossSeed.Fill(1)
	gradOf[loss] = e.lossSeed

	if e.net.gradSlab == nil { // the first pass, or the slabs were laid out again
		e.setGradInto()
	}
	e.net.pairs = e.net.pairs[:0]
	for i := len(e.order) - 1; i >= 0; i-- {
		n := e.order[i]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ev != nil && ev.Stop != nil && ev.Stop() {
			break
		}
		outs := e.nodeOuts[n]
		if outs == nil {
			continue // node skipped in forward (early exit)
		}
		sc := e.nodeBwd[n]
		if sc == nil || len(sc.gradOuts) != len(outs) {
			sc = &bwdScratch{gradOuts: make([]*tensor.Tensor, len(outs)), zeros: make([]*tensor.Tensor, len(outs))}
			e.nodeBwd[n] = sc
		}
		gradOuts := sc.gradOuts
		any := false
		for j := range gradOuts { // all nil here: cleared after every use
			if j < len(n.Outputs) {
				if g, ok := gradOf[n.Outputs[j]]; ok {
					gradOuts[j] = g
					any = true
				}
			}
		}
		if !any {
			continue // node not on the loss path
		}
		for j := range gradOuts {
			if gradOuts[j] != nil {
				continue
			}
			if z := sc.zeros[j]; z != nil && tensor.SameShape(z, outs[j]) {
				z.Zero()
			} else {
				sc.zeros[j] = tensor.New(outs[j].Shape()...)
			}
			gradOuts[j] = sc.zeros[j]
		}
		op := e.nodeOps[n]
		if ev != nil && ev.BeforeBackwardOp != nil {
			ev.BeforeBackwardOp(n)
		}
		var opSpan *trace.Span
		if bwdSpan != nil {
			opSpan = bwdSpan.StartChild("op.bwd:"+n.OpType, trace.String("node", n.Name))
		}
		opStart := time.Now()
		e.spinOverhead()
		gradIns := op.Backward(gradOuts, e.nodeIns[n], outs)
		opDur := time.Since(opStart)
		opSpan.End()
		if ev != nil && ev.AfterBackwardOp != nil {
			ev.AfterBackwardOp(n, opDur)
		}
		for j, name := range n.Inputs {
			if name == "" || j >= len(gradIns) || gradIns[j] == nil {
				continue
			}
			if prev, ok := gradOf[name]; ok {
				prev.AddInPlace(gradIns[j])
			} else {
				gradOf[name] = gradIns[j]
			}
		}
		clear(gradOuts)
	}
	for i, name := range e.net.names {
		g, ok := gradOf[name]
		view := e.net.grads[i]
		switch {
		case !ok:
			view.Zero()
			continue
		case g.Size() != view.Size():
			return nil, fmt.Errorf("executor: gradient of %q has %d values, the parameter %d", name, g.Size(), view.Size())
		case g != view:
			copy(view.Data(), g.Data())
		}
		e.net.pairs = append(e.net.pairs, ParamGrad{Name: name, Param: e.net.params[i], Grad: view})
	}
	bwdSpan.End()
	if ev != nil && ev.AfterBackprop != nil {
		ev.AfterBackprop(time.Since(start))
	}
	return e.collectOutputs(), nil
}
