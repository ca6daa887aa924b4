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
// The driver's gradient hook all-reduces the whole gradient slab once per
// step. If that fails (a fabric error, or the step's context ending), Train
// returns the error before any parameter changes or the driver's Step
// advances: the ranks still hold the parameters they held before the step.
type ConsistentDecentralized struct {
	d *training.Driver
	// ctx and err carry a step's context into the gradient hook and its
	// communication error back out: Driver.GradHook cannot return an error.
	ctx context.Context
	err error
}

// NewConsistentDecentralized wraps a driver with an allreduce gradient hook
// using the chosen allreduce algorithm.
func NewConsistentDecentralized(d *training.Driver, r Rank, algo mpi.AllreduceAlgo) *ConsistentDecentralized {
	o := &ConsistentDecentralized{d: d}
	d.GradHook = func(_ string, grad *tensor.Tensor) *tensor.Tensor {
		return o.allreduceMean(r, algo, grad, mpi.SimActual)
	}
	return o
}

// Train runs one allreduce-synchronized step.
func (o *ConsistentDecentralized) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	o.ctx, o.err = ctx, nil
	out, err := o.d.Train(ctx, feeds)
	o.ctx = nil
	if o.err != nil {
		return nil, o.err
	}
	return out, err
}

// Executor returns the wrapped executor.
func (o *ConsistentDecentralized) Executor() executor.GraphExecutor { return o.d.Executor() }

// allreduceMean averages grad across the ranks of r and returns it, or
// returns nil, failing the step, when the all-reduce fails.
func (o *ConsistentDecentralized) allreduceMean(r Rank, algo mpi.AllreduceAlgo, grad *tensor.Tensor, simBytes int64) *tensor.Tensor {
	ctx := o.ctx
	if ctx == nil { // the driver was stepped directly, not through Train
		ctx = context.Background()
	}
	if o.err = AllreduceMean(ctx, r, algo, grad.Data(), simBytes); o.err != nil {
		return nil
	}
	return grad
}

// NeighborAveraging is gossip-based DPSGD: each rank takes a local
// optimizer step and then averages its parameters with its ring neighbors,
// so information diffuses over the topology instead of being globally
// synchronized every step.
type NeighborAveraging struct {
	d *training.Driver
	r Rank
}

// NewNeighborAveraging wraps a driver with post-step neighbor averaging.
func NewNeighborAveraging(d *training.Driver, r Rank) *NeighborAveraging {
	return &NeighborAveraging{d: d, r: r}
}

// Train runs a local step then averages the parameter slab with the ring
// neighbors', in place once both have arrived.
func (o *NeighborAveraging) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	out, err := o.d.Train(ctx, feeds)
	if err != nil {
		return nil, err
	}
	p := o.r.Size()
	if p == 1 {
		return out, nil
	}
	params := o.d.Executor().Network().ParamSlab().Data()
	left, right := (o.r.ID()-1+p)%p, (o.r.ID()+1)%p
	if err := o.r.Send(right, o.d.Step, params, mpi.SimActual); err != nil {
		return nil, err
	}
	if left != right {
		if err := o.r.Send(left, o.d.Step, params, mpi.SimActual); err != nil {
			return nil, err
		}
	}
	lv, err := recvLen(ctx, o.r, left, len(params))
	if err != nil {
		return nil, err
	}
	rv := lv
	if left != right {
		if rv, err = recvLen(ctx, o.r, right, len(params)); err != nil {
			return nil, err
		}
	}
	inv := float32(1.0 / 3.0)
	if left == right { // 2-rank world: single neighbor
		inv = 0.5
	}
	for i := range params {
		sum := params[i] + lv.Data[i]
		if left != right {
			sum += rv.Data[i]
		}
		params[i] = sum * inv
	}
	o.r.Release(lv.Data)
	if left != right {
		o.r.Release(rv.Data)
	}
	return out, nil
}

// Executor returns the wrapped executor.
func (o *NeighborAveraging) Executor() executor.GraphExecutor { return o.d.Executor() }

// ModelAveraging takes k local steps and then allreduce-averages the
// parameter vectors — the classic communication-reduction scheme that
// trades consistency for fewer synchronizations.
type ModelAveraging struct {
	d     *training.Driver
	r     Rank
	every int
	avg   []float32 // the rank's own copy of the parameters to average
}

// NewModelAveraging wraps a driver with parameter averaging every k steps.
func NewModelAveraging(d *training.Driver, r Rank, k int) *ModelAveraging {
	if k < 1 {
		k = 1
	}
	return &ModelAveraging{d: d, r: r, every: k}
}

// Train runs one local step, averaging models every k-th step; a failed
// average leaves the local step's parameters.
func (o *ModelAveraging) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	out, err := o.d.Train(ctx, feeds)
	if err != nil {
		return nil, err
	}
	if o.d.Step%o.every == 0 && o.r.Size() > 1 {
		params := o.d.Executor().Network().ParamSlab().Data()
		o.avg = append(o.avg[:0], params...)
		if err := AllreduceMean(ctx, o.r, mpi.AllreduceRing, o.avg, mpi.SimActual); err != nil {
			return nil, err
		}
		copy(params, o.avg)
	}
	return out, nil
}

// Executor returns the wrapped executor.
func (o *ModelAveraging) Executor() executor.GraphExecutor { return o.d.Executor() }

// SparseDecentralized is top-k sparsified DSGD with error feedback
// (SparCML-style): each rank keeps only the largest-magnitude fraction of
// each gradient, accumulates the remainder locally as a residual for the
// next step, and allreduces the sparsified gradient slab. It steps and
// fails as ConsistentDecentralized does, with another gradient hook.
type SparseDecentralized struct{ ConsistentDecentralized }

// NewSparseDecentralized wraps a driver with top-density sparsification
// (density in (0,1]) and an allreduce of the surviving entries.
func NewSparseDecentralized(d *training.Driver, r Rank, density float64) *SparseDecentralized {
	if density <= 0 || density > 1 {
		density = 1
	}
	o := &SparseDecentralized{ConsistentDecentralized{d: d}}
	residuals := make(map[string][]float32)
	var scratch []float32
	d.GradHook = func(_ string, grad *tensor.Tensor) *tensor.Tensor {
		var nnz int64
		for _, pg := range d.Executor().Network().Gradients() {
			g := pg.Grad.Data()
			res := residuals[pg.Name]
			if len(res) != len(g) {
				res = make([]float32, len(g))
				residuals[pg.Name] = res
			}
			for i := range g {
				g[i] += res[i]
			}
			var thr float32
			thr, scratch = topKThreshold(g, density, scratch)
			for i, v := range g {
				if abs32(v) >= thr && v != 0 {
					res[i] = 0
					nnz++
				} else {
					res[i] = v
					g[i] = 0
				}
			}
		}
		// Charge the wire for index+value pairs of surviving entries rather
		// than the dense vector.
		return o.allreduceMean(r, mpi.AllreduceRing, grad, nnz*8)
	}
	return o
}

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
