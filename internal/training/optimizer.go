package training

import (
	"context"
	"errors"

	"deep500/internal/executor"
	"deep500/internal/tensor"
)

// Optimizer can perform one training step given input feeds — the Level 2
// Optimizer interface. The paper's distributed optimizers (Level 3) also
// satisfy it, wrapping a base optimizer with communication (Listing 9).
type Optimizer interface {
	// Train runs one optimization step and returns the model outputs
	// (loss, accuracy, ...). Cancelling ctx aborts the underlying passes.
	Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)
	// Executor returns the underlying graph executor.
	Executor() executor.GraphExecutor
}

// ThreeStep is the paper's novel three-step optimizer abstraction
// (§IV-E): ¶ NewInput (per-iteration state, Algorithm 1 line 2 context),
// · PrepareParam (adjust parameters before inference, line 3), and
// ¸ UpdateRule (apply an update, line 6). Splitting the optimizer this way
// is what lets Level 3 distribute any optimizer automatically.
type ThreeStep interface {
	// NewInput advances per-iteration state (step counters, schedules).
	NewInput()
	// PrepareParam may return an adjusted parameter tensor to use for the
	// upcoming inference, or nil to leave the parameter unchanged.
	PrepareParam(name string, param *tensor.Tensor) *tensor.Tensor
	// UpdateRule returns the new parameter given its gradient and old
	// value. It may update oldParam in place and return oldParam itself —
	// the built-in fused rules do — or return a fresh tensor, whose values
	// the driver then feeds to the network. grad is only valid during the
	// call (see GradHook); a rule that keeps it must copy it.
	UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor
}

// GradHook transforms the gradients before the update rule runs — the
// interposition point Level 3 uses for allreduce and sparsification.
// Driver.Train calls it once per step with no name and the whole gradient
// slab (executor.Network.GradSlab), valid until the next backward pass. It
// may overwrite grad and return it, as the allreduce hooks do, or return a
// tensor of its length to copy over it; nil fails the step before any
// parameter changes.
type GradHook func(name string, grad *tensor.Tensor) *tensor.Tensor

// Driver executes the canonical three-step training iteration against a
// graph executor. It is the non-distributed reference Optimizer; the
// distributed optimizers in internal/dist follow the same sequence with
// communication inserted via GradHook or around the step.
type Driver struct {
	exec executor.GraphExecutor
	ts   ThreeStep
	// Loss is the loss tensor name (default "loss").
	Loss string
	// GradHook, when non-nil, transforms the gradients before the update.
	GradHook GradHook
	// Step counts completed training iterations.
	Step int
}

// NewDriver binds a three-step optimizer to an executor.
func NewDriver(exec executor.GraphExecutor, ts ThreeStep) *Driver {
	return &Driver{exec: exec, ts: ts, Loss: "loss"}
}

// Executor returns the bound executor.
func (d *Driver) Executor() executor.GraphExecutor { return d.exec }

// Train runs one iteration: prepare parameters, inference+backprop, the
// gradient hook, then the update rule on every parameter with a gradient —
// Listing 9's sequence. A rule that returns the parameter tensor it was
// handed has updated it in place and nothing is fed back; this is judged on
// the returned pointer alone, so it holds through any wrapper around the
// rule. A failed pass or a nil hook result returns an error before any
// update rule runs, with Step unchanged.
func (d *Driver) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	net := d.exec.Network()
	d.ts.NewInput()
	for _, name := range net.Params() {
		p, _ := net.FetchTensor(name) // a listed name is always found
		if adjusted := d.ts.PrepareParam(name, p); adjusted != nil {
			net.FeedTensor(name, adjusted)
		}
	}
	out, err := d.exec.InferenceAndBackprop(ctx, feeds, d.Loss)
	if err != nil {
		return nil, err
	}
	if d.GradHook != nil {
		slab := net.GradSlab()
		switch g := d.GradHook("", slab); {
		case g == nil || g.Size() != slab.Size():
			return nil, errors.New("training: the gradient hook failed the step")
		case g != slab:
			copy(slab.Data(), g.Data())
		}
	}
	for _, pg := range net.Gradients() {
		if p := d.ts.UpdateRule(pg.Grad, pg.Param, pg.Name); p != pg.Param {
			net.FeedTensor(pg.Name, p)
		}
	}
	d.Step++
	return out, nil
}
