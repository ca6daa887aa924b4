package executor

import (
	"fmt"
	"sort"

	"deep500/internal/graph"
)

// This file implements the static memory-planning pass: given a model and
// the concrete element count of every intermediate value (observed from a
// profiling pass at a fixed batch size), it computes the liveness interval
// of each value in topological order and assigns all of them offsets into
// one pre-sized slab, reusing dead intervals greedily. An executor that
// honours the plan performs zero steady-state allocations per forward pass:
// every activation lives at a fixed slab offset decided here, once.
//
// The pass is shape-specialized by design — it is the planning half of the
// executor's activation allocator (memplan.go is the run-time half), re-run
// by the executor whenever the feed shapes change. A training pass is
// planned too, with every value kept to the end of the pass, because
// backpropagation reads activations after their last forward consumer.

// PlanSlot is the slab placement of one planned value.
type PlanSlot struct {
	// Offset and Elems delimit the value's float32 range in the slab.
	Offset int
	Elems  int
	// Birth is the topological index of the producing node; Death is the
	// index of the last consuming node, or the node count for model
	// outputs and for every value of a training plan (live until the end
	// of the pass).
	Birth int
	Death int
}

// MemPlan is the output of the memory-planning pass: one slab size and a
// fixed offset for every planned value. Reuse is safe for an executor that
// runs nodes in the planner's topological order: a region's previous tenant
// is dead before its next producer runs.
type MemPlan struct {
	// Slots maps value names to their slab placement.
	Slots map[string]PlanSlot
	// SlabElems is the total slab length in float32 elements.
	SlabElems int
	// NoReuseElems is the sum of all planned value sizes — the slab length
	// a reuse-free allocator would need. SlabElems/NoReuseElems is the
	// pass's compression ratio.
	NoReuseElems int
}

// SlabBytes returns the planned slab footprint in bytes.
func (p *MemPlan) SlabBytes() int64 { return int64(p.SlabElems) * 4 }

// NoReuseBytes returns the footprint a plan without interval reuse would
// have needed, in bytes.
func (p *MemPlan) NoReuseBytes() int64 { return int64(p.NoReuseElems) * 4 }

// String summarizes the plan in one line.
func (p *MemPlan) String() string {
	ratio := 1.0
	if p.SlabElems > 0 {
		ratio = float64(p.NoReuseElems) / float64(p.SlabElems)
	}
	return fmt.Sprintf("memplan: %d values, slab %d KiB (no-reuse %d KiB, %.2fx reuse)",
		len(p.Slots), p.SlabBytes()/1024, p.NoReuseBytes()/1024, ratio)
}

// planValue is the liveness record of one intermediate during planning.
type planValue struct {
	name  string
	elems int
	birth int
	death int
	// placed slab range, filled during the allocation sweep
	off int
}

// freeBlock is a recyclable slab range.
type freeBlock struct {
	off   int
	elems int
}

// PlanMemory computes a static memory plan for the model's intermediate
// values. sizes maps value names to their element counts, as observed at
// the batch size the plan is specialized to; values without a size entry
// (and graph inputs / initializers, which the executor does not own) are
// left unplanned and keep their ordinary allocation path.
//
// The planner walks the model's deterministic topological order — the same
// order the reference executor runs — computing [birth, death] intervals
// (model outputs stay live to the end of the pass), then assigns offsets
// with a greedy best-fit free list: freed intervals are coalesced with
// their slab neighbours and the smallest block that fits is split.
//
// A training plan (training set) keeps every value live to the end of the
// pass, as it keeps model outputs: the backward pass that follows the
// forward reads activations after their last forward consumer. Such a plan
// reuses no interval; its slab is the sum of its values.
func PlanMemory(m *graph.Model, sizes map[string]int, training bool) (*MemPlan, error) {
	order, err := m.TopoSort()
	if err != nil {
		return nil, err
	}
	// Values the executor does not allocate per pass: feeds and parameters.
	external := make(map[string]bool, len(m.Inputs)+len(m.Initializers))
	for _, in := range m.Inputs {
		external[in.Name] = true
	}
	for name := range m.Initializers {
		external[name] = true
	}
	isModelOut := make(map[string]bool, len(m.Outputs))
	for _, name := range m.Outputs {
		isModelOut[name] = true
	}

	// Liveness sweep: birth at the producer, death at the last consumer.
	vals := make(map[string]*planValue)
	var planned []*planValue // in birth order, outputs of each node in order
	for i, n := range order {
		for _, in := range n.Inputs {
			if v, ok := vals[in]; ok {
				v.death = i
			}
		}
		for _, out := range n.Outputs {
			if out == "" || external[out] {
				continue
			}
			elems, ok := sizes[out]
			if !ok || elems <= 0 {
				continue
			}
			v := &planValue{name: out, elems: elems, birth: i, death: i}
			vals[out] = v
			planned = append(planned, v)
		}
	}
	for _, v := range planned {
		if training || isModelOut[v.name] {
			v.death = len(order) // live until the end of the pass
		}
	}

	plan := &MemPlan{Slots: make(map[string]PlanSlot, len(planned))}
	var free []freeBlock // sorted by offset
	var live []*planValue

	release := func(v *planValue) {
		blk := freeBlock{off: v.off, elems: v.elems}
		// Insert sorted by offset, coalescing with adjacent free blocks so
		// consecutive small activations can serve one large successor.
		pos := sort.Search(len(free), func(i int) bool { return free[i].off >= blk.off })
		if pos > 0 && free[pos-1].off+free[pos-1].elems == blk.off {
			prev := &free[pos-1]
			prev.elems += blk.elems
			if pos < len(free) && prev.off+prev.elems == free[pos].off {
				prev.elems += free[pos].elems
				free = append(free[:pos], free[pos+1:]...)
			}
			return
		}
		if pos < len(free) && blk.off+blk.elems == free[pos].off {
			free[pos] = freeBlock{off: blk.off, elems: blk.elems + free[pos].elems}
			return
		}
		free = append(free, freeBlock{})
		copy(free[pos+1:], free[pos:])
		free[pos] = blk
	}

	alloc := func(v *planValue) {
		// Best fit: the smallest free block that holds the value.
		best := -1
		for i, blk := range free {
			if blk.elems < v.elems {
				continue
			}
			if best < 0 || blk.elems < free[best].elems {
				best = i
			}
		}
		if best < 0 {
			v.off = plan.SlabElems
			plan.SlabElems += v.elems
			return
		}
		blk := free[best]
		v.off = blk.off
		if blk.elems > v.elems {
			free[best] = freeBlock{off: blk.off + v.elems, elems: blk.elems - v.elems}
		} else {
			free = append(free[:best], free[best+1:]...)
		}
	}

	for i, n := range order {
		// Expire values whose last consumer strictly precedes this node: a
		// value read by node i must not back node i's own output (operators
		// read inputs while writing outputs, so in-place would corrupt).
		kept := live[:0]
		for _, v := range live {
			if v.death < i {
				release(v)
			} else {
				kept = append(kept, v)
			}
		}
		live = kept
		for _, out := range n.Outputs {
			v, ok := vals[out]
			if !ok || v.birth != i {
				continue
			}
			alloc(v)
			live = append(live, v)
			plan.NoReuseElems += v.elems
			plan.Slots[v.name] = PlanSlot{Offset: v.off, Elems: v.elems, Birth: v.birth, Death: v.death}
		}
	}
	return plan, nil
}
