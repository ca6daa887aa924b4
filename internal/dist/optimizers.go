package dist

import (
	"context"
	"math"

	"deep500/internal/executor"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// ConsistentDecentralized is allreduce-averaged DSGD: every rank computes a
// local gradient and the gradients are summed across ranks (divided by the
// world size) before the base optimizer's update rule runs — bitwise the
// same trajectory on every rank, matching serial large-batch SGD.
//
// The all-reduces run inside the driver's gradient hook, one per
// parameter. If one fails (a fabric error, or the step's context ending),
// the rest of the step skips communication and Train returns that error.
// The parameters are then undefined — some were updated from reduced
// gradients, some from local ones — and the ranks no longer agree;
// recovery means restarting every rank from a checkpoint.
type ConsistentDecentralized struct {
	d    *training.Driver
	comm stepComm
}

// NewConsistentDecentralized wraps a driver with an allreduce gradient hook
// using the chosen allreduce algorithm.
func NewConsistentDecentralized(d *training.Driver, r Rank, algo mpi.AllreduceAlgo) *ConsistentDecentralized {
	o := &ConsistentDecentralized{d: d}
	d.GradHook = func(_ string, grad *tensor.Tensor) *tensor.Tensor {
		o.comm.allreduceMean(r, algo, grad.Data(), mpi.SimActual)
		return grad
	}
	return o
}

// Train runs one allreduce-synchronized step.
func (o *ConsistentDecentralized) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return o.comm.train(ctx, o.d, feeds)
}

// Executor returns the wrapped executor.
func (o *ConsistentDecentralized) Executor() executor.GraphExecutor { return o.d.Executor() }

// stepComm carries a training step's context into the gradient hook and
// its first communication error back out: Driver.GradHook cannot return an
// error. After the first failure the step's remaining all-reduces are
// skipped rather than each waiting out the fabric's receive timeout.
type stepComm struct {
	ctx context.Context
	err error
}

// train runs one driver step with c armed for the hooks it triggers.
func (c *stepComm) train(ctx context.Context, d *training.Driver, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	c.ctx, c.err = ctx, nil
	out, err := d.Train(ctx, feeds)
	c.ctx = nil
	if c.err != nil {
		return nil, c.err
	}
	return out, err
}

// allreduceMean averages data across the ranks of r unless the step has
// already failed.
func (c *stepComm) allreduceMean(r Rank, algo mpi.AllreduceAlgo, data []float32, simBytes int64) {
	if c.err != nil {
		return
	}
	ctx := c.ctx
	if ctx == nil { // the driver was stepped directly, not through Train
		ctx = context.Background()
	}
	c.err = AllreduceMean(ctx, r, algo, data, simBytes)
}

// NeighborAveraging is gossip-based DPSGD: each rank takes a local
// optimizer step and then averages its parameters with its ring neighbors,
// so information diffuses over the topology instead of being globally
// synchronized every step.
type NeighborAveraging struct {
	d      *training.Driver
	r      Rank
	layout *Params
}

// NewNeighborAveraging wraps a driver with post-step neighbor averaging.
func NewNeighborAveraging(d *training.Driver, r Rank) *NeighborAveraging {
	return &NeighborAveraging{d: d, r: r, layout: PackParams(d.Executor().Network())}
}

// Train runs a local step then averages parameters with the ring neighbors.
func (o *NeighborAveraging) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	out, err := o.d.Train(ctx, feeds)
	if err != nil {
		return nil, err
	}
	p := o.r.Size()
	if p == 1 {
		return out, nil
	}
	net := o.d.Executor().Network()
	o.layout.GatherFrom(net)
	left, right := (o.r.ID()-1+p)%p, (o.r.ID()+1)%p
	if err := o.r.Send(right, o.d.Step, o.layout.Vec, mpi.SimActual); err != nil {
		return nil, err
	}
	if left != right {
		if err := o.r.Send(left, o.d.Step, o.layout.Vec, mpi.SimActual); err != nil {
			return nil, err
		}
	}
	lv, err := o.r.Recv(ctx, left)
	if err != nil {
		return nil, err
	}
	rv := lv
	if left != right {
		if rv, err = o.r.Recv(ctx, right); err != nil {
			return nil, err
		}
	}
	inv := float32(1.0 / 3.0)
	if left == right { // 2-rank world: single neighbor
		inv = 0.5
	}
	for i := range o.layout.Vec {
		sum := o.layout.Vec[i] + lv.Data[i]
		if left != right {
			sum += rv.Data[i]
		}
		o.layout.Vec[i] = sum * inv
	}
	o.r.Release(lv.Data)
	if left != right {
		o.r.Release(rv.Data)
	}
	o.layout.ScatterTo(net)
	return out, nil
}

// Executor returns the wrapped executor.
func (o *NeighborAveraging) Executor() executor.GraphExecutor { return o.d.Executor() }

// ModelAveraging takes k local steps and then allreduce-averages the
// parameter vectors — the classic communication-reduction scheme that
// trades consistency for fewer synchronizations.
type ModelAveraging struct {
	d      *training.Driver
	r      Rank
	every  int
	layout *Params
}

// NewModelAveraging wraps a driver with parameter averaging every k steps.
func NewModelAveraging(d *training.Driver, r Rank, k int) *ModelAveraging {
	if k < 1 {
		k = 1
	}
	return &ModelAveraging{d: d, r: r, every: k, layout: PackParams(d.Executor().Network())}
}

// Train runs one local step, averaging models every k-th step.
func (o *ModelAveraging) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	out, err := o.d.Train(ctx, feeds)
	if err != nil {
		return nil, err
	}
	if o.d.Step%o.every == 0 && o.r.Size() > 1 {
		net := o.d.Executor().Network()
		o.layout.GatherFrom(net)
		if err := AllreduceMean(ctx, o.r, mpi.AllreduceRing, o.layout.Vec, mpi.SimActual); err != nil {
			return nil, err
		}
		o.layout.ScatterTo(net)
	}
	return out, nil
}

// Executor returns the wrapped executor.
func (o *ModelAveraging) Executor() executor.GraphExecutor { return o.d.Executor() }

// SparseDecentralized is top-k sparsified DSGD with error feedback
// (SparCML-style): each rank keeps only the largest-magnitude fraction of
// each gradient, accumulates the remainder locally as a residual for the
// next step, and allreduces the sparsified vectors. A failed all-reduce
// fails the step as in ConsistentDecentralized.
type SparseDecentralized struct {
	d    *training.Driver
	comm stepComm
}

// NewSparseDecentralized wraps a driver with top-density sparsification
// (density in (0,1]) and an allreduce of the surviving entries.
func NewSparseDecentralized(d *training.Driver, r Rank, density float64) *SparseDecentralized {
	if density <= 0 || density > 1 {
		density = 1
	}
	o := &SparseDecentralized{d: d}
	residuals := make(map[string][]float32)
	var scratch []float32
	d.GradHook = func(name string, grad *tensor.Tensor) *tensor.Tensor {
		g := grad.Data()
		res := residuals[name]
		if len(res) != len(g) {
			res = make([]float32, len(g))
			residuals[name] = res
		}
		for i := range g {
			g[i] += res[i]
		}
		var thr float32
		thr, scratch = topKThreshold(g, density, scratch)
		var nnz int64
		for i, v := range g {
			if abs32(v) >= thr && v != 0 {
				res[i] = 0
				nnz++
			} else {
				res[i] = v
				g[i] = 0
			}
		}
		// Charge the wire for index+value pairs of surviving entries rather
		// than the dense vector.
		o.comm.allreduceMean(r, mpi.AllreduceRing, g, nnz*8)
		return grad
	}
	return o
}

// Train runs one sparsified allreduce step.
func (o *SparseDecentralized) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return o.comm.train(ctx, o.d, feeds)
}

// Executor returns the wrapped executor.
func (o *SparseDecentralized) Executor() executor.GraphExecutor { return o.d.Executor() }

// topKThreshold returns the magnitude of the k-th largest |v| where
// k = ceil(density·len). Values ≥ the threshold survive sparsification.
// scratch is reused across calls (quickselect runs in the per-step hot
// path of the sparse scheme); pass the previous return value's slice.
func topKThreshold(g []float32, density float64, scratch []float32) (float32, []float32) {
	k := int(math.Ceil(density * float64(len(g))))
	if k >= len(g) {
		return 0, scratch
	}
	if k < 1 {
		k = 1
	}
	if cap(scratch) < len(g) {
		scratch = make([]float32, len(g))
	}
	mags := scratch[:len(g)]
	for i, v := range g {
		mags[i] = abs32(v)
	}
	return quickselectDesc(mags, k-1), scratch
}

// quickselectDesc returns the element that would sit at index k if mags
// were sorted descending, partially reordering mags in place. Expected
// O(n); a deterministic median-of-three pivot avoids the common
// sorted-input worst case.
func quickselectDesc(mags []float32, k int) float32 {
	lo, hi := 0, len(mags)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		// median-of-three pivot, moved to mags[hi]
		if mags[mid] > mags[lo] {
			mags[mid], mags[lo] = mags[lo], mags[mid]
		}
		if mags[hi] > mags[lo] {
			mags[hi], mags[lo] = mags[lo], mags[hi]
		}
		if mags[mid] > mags[hi] {
			mags[mid], mags[hi] = mags[hi], mags[mid]
		}
		pivot := mags[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if mags[j] > pivot {
				mags[i], mags[j] = mags[j], mags[i]
				i++
			}
		}
		mags[i], mags[hi] = mags[hi], mags[i]
		switch {
		case i == k:
			return mags[k]
		case i < k:
			lo = i + 1
		default:
			hi = i - 1
		}
	}
	return mags[k]
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
