package executor

import (
	"deep500/internal/graph"
	"deep500/internal/ops"
	"deep500/internal/tensor"
)

// This file wires the static memory plan (PlanMemory, plan.go) into the
// executor. With WithMemPlan enabled the first inference at a given set of
// feed shapes runs through the ordinary allocation path while the executor
// observes every activation's concrete shape; it then builds a plan — one
// slab, a fixed offset per intermediate — and all subsequent passes at
// those shapes write activations straight into the slab: zero steady-state
// allocations per forward pass.
//
// The plan is forward-only. Training passes (InferenceAndBackprop) bypass
// it, because backpropagation reads forward activations after the nodes
// that the plan considers their last consumers — slab reuse would hand the
// backward pass clobbered data. Running nodes strictly in the planner's
// topological order is what makes slab reuse safe: a recycled region's
// previous tenant is dead before its next producer runs.

// planRuntime is the executor-side state of one installed memory plan,
// specialized to a fixed set of feed shapes.
type planRuntime struct {
	plan *MemPlan
	// slab is the single backing array every planned activation points into.
	slab []float32
	// feedShapes are the feed shapes the plan was specialized to; a pass
	// with different shapes invalidates the plan.
	feedShapes map[string][]int
	// allocs maps each node to the allocator that hands out its planned
	// output tensors in declaration order.
	allocs map[*graph.Node]*planAlloc
	// miss is set when a planned pass had to fall back (a shape deviated
	// from the profile); the executor drops and rebuilds the plan.
	miss bool
}

// matches reports whether feeds have exactly the shapes the plan was built
// for. It allocates nothing.
func (rt *planRuntime) matches(feeds map[string]*tensor.Tensor) bool {
	if len(feeds) != len(rt.feedShapes) {
		return false
	}
	for name, t := range feeds {
		s, ok := rt.feedShapes[name]
		if !ok || !shapeEq(s, t.Shape()) {
			return false
		}
	}
	return true
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// planAlloc implements tensor.Allocator for one node: successive Get calls
// return the node's pre-built slab-backed output tensors in order. Operators
// request outputs through newOut exactly once per declared output, in
// declaration order, which is what lets call order stand in for output
// identity. A shape mismatch (the plan is stale) or an unplanned output
// falls back to the ordinary allocator.
type planAlloc struct {
	outs     []*tensor.Tensor // one per node output; nil = unplanned
	next     int
	fallback tensor.Allocator
	miss     *bool
}

// Get returns the next planned output tensor, zero-filled to match the
// arena allocator's contract. Steady-state calls allocate nothing.
func (p *planAlloc) Get(shape ...int) *tensor.Tensor {
	if p.next < len(p.outs) {
		t := p.outs[p.next]
		p.next++
		if t != nil {
			if shapeEq(t.Shape(), shape) {
				clear(t.Data())
				return t
			}
			*p.miss = true // shape drifted from the profile: plan stale
		}
	} else {
		*p.miss = true
	}
	if p.fallback != nil {
		return p.fallback.Get(shape...)
	}
	return tensor.New(shape...)
}

// setPlanActive points every operator's output allocation at the plan (or
// back at the legacy arena/GC path) when the pass mode changes.
func (e *Executor) setPlanActive(active bool) {
	if active == e.planActive {
		return
	}
	e.planActive = active
	for _, n := range e.order {
		aa, ok := e.nodeOps[n].(ops.AllocatorAware)
		if !ok {
			continue
		}
		if active {
			if pa := e.planRT.allocs[n]; pa != nil {
				aa.SetAllocator(pa)
				continue
			}
		}
		if e.arena != nil {
			aa.SetAllocator(e.arena)
		} else {
			aa.SetAllocator(nil)
		}
	}
}

// dropPlan discards the installed plan (shape change or stale profile) and
// restores the legacy allocation path; the next inference re-profiles.
func (e *Executor) dropPlan() {
	e.setPlanActive(false)
	e.planRT = nil
}

// buildPlan runs the memory-planning pass over the activation sizes
// observed by the pass that just completed and installs the resulting slab.
// It is a no-op (the executor stays on the legacy path) when planning fails
// or finds nothing to plan.
func (e *Executor) buildPlan(feeds map[string]*tensor.Tensor) {
	sizes := make(map[string]int, len(e.order))
	for _, n := range e.order {
		for _, out := range n.Outputs {
			if out == "" {
				continue
			}
			if t, ok := e.values[out]; ok && t != nil {
				sizes[out] = t.Size()
			}
		}
	}
	plan, err := PlanMemory(e.net.Model, sizes)
	if err != nil || len(plan.Slots) == 0 {
		return
	}
	rt := &planRuntime{
		plan:       plan,
		slab:       make([]float32, plan.SlabElems),
		feedShapes: make(map[string][]int, len(feeds)),
		allocs:     make(map[*graph.Node]*planAlloc, len(e.order)),
	}
	for name, t := range feeds {
		rt.feedShapes[name] = append([]int(nil), t.Shape()...)
	}
	var fallback tensor.Allocator
	if e.arena != nil {
		fallback = e.arena
	}
	for _, n := range e.order {
		pa := &planAlloc{fallback: fallback, miss: &rt.miss}
		for _, out := range n.Outputs {
			var t *tensor.Tensor
			if slot, ok := plan.Slots[out]; ok {
				if v := e.values[out]; v != nil {
					data := rt.slab[slot.Offset : slot.Offset+slot.Elems : slot.Offset+slot.Elems]
					t = tensor.From(data, v.Shape()...)
				}
			}
			pa.outs = append(pa.outs, t)
		}
		rt.allocs[n] = pa
	}
	e.planRT = rt
}

// MemPlan returns the installed memory plan, or nil when none is active
// (planning disabled, or no planned pass has run yet). Benchmarks use it to
// report slab footprint and reuse ratio.
func (e *Executor) MemPlan() *MemPlan {
	if e.planRT == nil {
		return nil
	}
	return e.planRT.plan
}
