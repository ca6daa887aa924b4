package executor

import (
	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// This file is the executor's activation allocator: a static memory plan
// (PlanMemory, plan.go) per set of feed shapes and pass kind. A pass that
// does not run out of a plan draws operator outputs from the GC while the
// executor records which tensors each operator drew. The first pass at a
// set of feed shapes only remembers the shapes. The second one is the
// profiling pass: the executor plans every activation it drew into one
// slab, and later passes at those shapes write activations at fixed slab
// offsets. A shape seen once therefore never gets a plan, and never grows
// the slab. What a planned pass allocates is at most what it returns: the
// model outputs and the map holding them, which stay out of the slab and
// belong to the caller.
//
// Inference and training passes (InferenceAndBackprop) are planned apart:
// an entry remembers which kind of pass it was made for, so a training
// pass never runs on an inference plan. An inference plan reuses a value's
// slab region once its last consumer ran. A training plan reuses nothing:
// backpropagation reads forward activations after the nodes an inference
// plan considers their last consumers, so every value of a training pass
// stays live to the end of the pass. Running nodes strictly in the
// planner's topological order is what makes slab reuse safe: a recycled
// region's previous tenant is dead before its next producer runs.
//
// The executor remembers at most planCacheSize sets of feed shapes, planned
// or not, evicting the least recently used. Every plan is an offset table
// into the executor's one slab, sized to the largest plan: an executor runs
// one pass at a time, and nothing a pass leaves behind lives in the slab,
// so no two plans need the slab at once.

// planCacheSize bounds the sets of feed shapes one executor remembers. It is
// not a bound on the shapes a caller may send. When more shapes recur than
// the executor remembers, most of them are forgotten before they come back:
// those passes run unplanned, on GC tensors, and cost what a pass without
// any plan costs plus remembering their shapes.
const planCacheSize = 8

// allocMode is how the running pass draws operator outputs.
type allocMode uint8

const (
	allocRecord  allocMode = iota // from the GC, recording what each node drew
	allocPlanned                  // from the current plan's slab
)

// shapePlan is one remembered set of feed shapes and pass kind and, from
// its second sighting on, the slab placement of every planned activation
// at them.
type shapePlan struct {
	key   uint64 // feedKey of feeds
	train bool   // made for training passes (InferenceAndBackprop)
	feeds map[string][]int
	plan  *MemPlan // nil until the profiling pass
	// outs[i][j] is the slab tensor handed out for node i's output j, or
	// nil where the output is drawn from the GC (a model output, or a value
	// the plan does not place).
	outs [][]*tensor.Tensor
	// lastUse is the pass that last ran at these shapes (LRU order).
	lastUse uint64
	// stale is set when a pass found an activation shape that differs from
	// the profile; the entry is dropped after that pass.
	stale bool
}

// feedKey hashes the feeds' names and shapes (FNV-1a per feed, summed so
// map order does not matter). Entries compare it before their shapes.
func feedKey(feeds map[string]*tensor.Tensor) uint64 {
	var key uint64
	for name, t := range feeds {
		h := uint64(14695981039346656037)
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		for _, d := range t.Shape() {
			h = (h ^ uint64(d)) * 1099511628211
		}
		key += h
	}
	return key
}

// matches reports whether feeds, whose feedKey is key, have exactly the
// shapes the entry was made for, on a pass of the entry's kind. It
// allocates nothing.
func (p *shapePlan) matches(key uint64, train bool, feeds map[string]*tensor.Tensor) bool {
	if key != p.key || train != p.train || len(feeds) != len(p.feeds) {
		return false
	}
	for name, t := range feeds {
		s, ok := p.feeds[name]
		if !ok || !tensor.ShapeEq(s, t.Shape()) {
			return false
		}
	}
	return true
}

// nodeAlloc is the ops.Allocator installed on one node's operator.
// Operators request each declared output once per Forward, in declaration
// order (ops.AllocatorAware), so the call count within a pass stands in
// for output identity.
type nodeAlloc struct {
	e    *Executor
	idx  int    // the node's topological index
	pass uint64 // the pass next counts calls of
	next int
	// got holds the tensors handed out during an unplanned pass, in call
	// order.
	got []*tensor.Tensor
}

// Get returns a zero-filled tensor of the given shape: the planned slab
// tensor on a planned pass, a recorded GC tensor otherwise.
func (a *nodeAlloc) Get(shape ...int) *tensor.Tensor {
	e := a.e
	if a.pass != e.pass {
		a.pass, a.next = e.pass, 0
		clear(a.got)
		a.got = a.got[:0]
	}
	k := a.next
	a.next++
	if e.mode == allocPlanned {
		if outs := e.cur.outs[a.idx]; k < len(outs) && outs[k] != nil {
			if t := outs[k]; tensor.ShapeEq(t.Shape(), shape) {
				clear(t.Data())
				return t
			}
			e.cur.stale = true
		}
		return tensor.New(shape...)
	}
	t := tensor.New(shape...)
	a.got = append(a.got, t)
	return t
}

// planFor returns the entry remembered for the feeds' shapes and the pass
// kind, or nil.
func (e *Executor) planFor(key uint64, train bool, feeds map[string]*tensor.Tensor) *shapePlan {
	for _, p := range e.plans {
		if p.matches(key, train, feeds) {
			return p
		}
	}
	return nil
}

// remember records the feeds' shapes and the pass kind after their first
// pass. When the executor already remembers planCacheSize of them it
// forgets the least recently used and reuses that entry's storage, so
// traffic with more shapes than the cache holds allocates nothing here.
func (e *Executor) remember(key uint64, train bool, feeds map[string]*tensor.Tensor) {
	var p *shapePlan
	if len(e.plans) < planCacheSize {
		p = &shapePlan{feeds: make(map[string][]int, len(feeds))}
	} else {
		p = e.plans[0]
		for _, q := range e.plans[1:] {
			if q.lastUse < p.lastUse {
				p = q
			}
		}
		e.forget(p)
		*p = shapePlan{feeds: p.feeds}
		for name := range p.feeds {
			if _, ok := feeds[name]; !ok {
				delete(p.feeds, name)
			}
		}
	}
	for name, t := range feeds {
		p.feeds[name] = append(p.feeds[name][:0], t.Shape()...)
	}
	p.key, p.train, p.lastUse = key, train, e.pass
	e.plans = append(e.plans, p)
}

// forget drops p and, if p's plan was the largest, shrinks the slab.
func (e *Executor) forget(p *shapePlan) {
	for i, q := range e.plans {
		if q == p {
			e.plans = append(e.plans[:i], e.plans[i+1:]...)
			break
		}
	}
	if p.plan != nil {
		e.fitSlab(nil)
	}
}

// addPlan plans the profiling pass that just completed at p's shapes.
//
// The plan places only activations an operator drew from its allocator. A
// node that returned anything else may have returned a view of an input (a
// zero-copy split), so its inputs stay off the slab as well. Model outputs
// stay off it because they are the caller's.
func (e *Executor) addPlan(p *shapePlan) {
	if len(e.nodeOuts) != len(e.order) {
		return // the pass stopped early: there is no complete profile
	}
	pinned := make(map[string]bool, len(e.net.Model.Outputs))
	for _, name := range e.net.Model.Outputs {
		pinned[name] = true
	}
	drawn := make(map[string]int, len(e.order))
	for _, n := range e.order {
		a := e.allocs[n]
		for j, name := range n.Outputs {
			v := e.values[name]
			if name == "" || v == nil {
				continue
			}
			if a != nil && a.pass == e.pass && j < len(a.got) && a.got[j] == v {
				drawn[name] = v.Size()
				continue
			}
			for _, in := range n.Inputs {
				pinned[in] = true
			}
		}
	}
	for name := range pinned {
		delete(drawn, name)
	}
	plan, err := PlanMemory(e.net.Model, drawn, p.train)
	if err != nil {
		return
	}
	p.plan = plan
	p.outs = make([][]*tensor.Tensor, len(e.order))
	for i, n := range e.order {
		p.outs[i] = make([]*tensor.Tensor, len(n.Outputs))
		for j, name := range n.Outputs {
			if _, ok := plan.Slots[name]; ok {
				p.outs[i][j] = e.values[name] // carries the shape until bind
			}
		}
	}
	e.fitSlab(p)
}

// fitSlab sizes the slab to the largest plan. If that reallocates the slab,
// every plan is re-pointed into the new one; otherwise only added (if any)
// is bound.
func (e *Executor) fitSlab(added *shapePlan) {
	need := 0
	for _, p := range e.plans {
		if p.plan != nil {
			need = max(need, p.plan.SlabElems)
		}
	}
	if need == len(e.slab) {
		if added != nil {
			e.bind(added)
		}
		return
	}
	e.slab = make([]float32, need)
	for _, p := range e.plans {
		if p.plan != nil {
			e.bind(p)
		}
	}
}

// bind points p's slab tensors at their offsets in the current slab.
func (e *Executor) bind(p *shapePlan) {
	for i, outs := range p.outs {
		for j, t := range outs {
			if t == nil {
				continue
			}
			s := p.plan.Slots[e.order[i].Outputs[j]]
			outs[j] = tensor.From(e.slab[s.Offset:s.Offset+s.Elems:s.Offset+s.Elems], t.Shape()...)
		}
	}
}

// newAllocs builds one allocator per node; SetOp installs them.
func (e *Executor) newAllocs() {
	e.allocs = make(map[*graph.Node]*nodeAlloc, len(e.order))
	for i, n := range e.order {
		e.allocs[n] = &nodeAlloc{e: e, idx: i}
	}
}
