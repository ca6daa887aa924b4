package dist

import (
	"context"
	"fmt"

	"deep500/internal/executor"
	"deep500/internal/kernels"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// PSMode selects the consistency model of the parameter server.
type PSMode int

const (
	// PSSync waits for a gradient from every worker, applies the averaged
	// update, and broadcasts the new parameters — fully consistent.
	PSSync PSMode = iota
	// PSAsync applies each gradient the moment it arrives and replies
	// immediately — HOGWILD-style inconsistency.
	PSAsync
	// PSStale is stale-synchronous parallel: asynchronous, but a worker may
	// run at most Staleness steps ahead of the slowest active worker; the
	// server withholds its reply until the bound is satisfied.
	PSStale
)

func (m PSMode) String() string {
	switch m {
	case PSSync:
		return "sync"
	case PSAsync:
		return "async"
	case PSStale:
		return "stale"
	}
	return "unknown"
}

// ServerConfig parameterizes RunPSServer.
type ServerConfig struct {
	Mode PSMode
	// Staleness is the SSP bound for PSStale (ignored otherwise).
	Staleness int
	// StepsPerWorker is how many gradient messages the server expects from
	// each worker before shutting down. Ignored when UntilDone is set.
	StepsPerWorker int
	// UntilDone switches the server to done-counting shutdown: instead of
	// expecting a fixed gradient count, it serves until every worker has
	// sent a TagDone message. This is the mode the job control plane uses —
	// a worker restarted from a checkpoint may replay gradient messages, so
	// fixed counts would desynchronize — and it is only supported for
	// PSAsync (sync/stale rounds assume exact per-worker step counts).
	UntilDone bool
}

// RunPSServer runs the parameter-server loop on rank r (conventionally
// rank 0): it owns params (a model's parameter slab), applies the base
// optimizer's update rule to every (averaged) incoming gradient, and
// returns fresh parameters to workers according to the consistency mode.
// Every received payload is released once it has been consumed; a gradient
// of another length than params ends the server with an error.
// Cancelling ctx makes the server return ctx.Err() promptly, even from a
// receive blocked on a gradient that will never arrive; a fabric error
// ends it with that error.
func RunPSServer(ctx context.Context, r Rank, rule training.ThreeStep, params []float32, cfg ServerConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Size() - 1
	if workers < 1 {
		return fmt.Errorf("dist: parameter server needs at least one worker rank")
	}
	if cfg.UntilDone && cfg.Mode != PSAsync {
		return fmt.Errorf("dist: ServerConfig.UntilDone requires PSAsync (got %s)", cfg.Mode)
	}
	if !cfg.UntilDone && cfg.StepsPerWorker < 1 {
		return fmt.Errorf("dist: ServerConfig.StepsPerWorker must be ≥ 1")
	}
	apply := func(grad []float32, scale float32) {
		if scale != 1 {
			for i, v := range grad {
				grad[i] = v * scale
			}
		}
		rule.NewInput()
		g := tensor.From(grad, len(grad))
		w := tensor.From(params, len(params))
		// The product rules update w — a view of params — in place.
		if updated := rule.UpdateRule(g, w, "ps/params"); updated != w {
			copy(params, updated.Data())
		}
	}

	switch cfg.Mode {
	case PSSync:
		sum := make([]float32, len(params))
		for step := 0; step < cfg.StepsPerWorker; step++ {
			clear(sum)
			for w := 1; w <= workers; w++ {
				m, err := recvLen(ctx, r, w, len(params))
				if err != nil {
					return err
				}
				kernels.AddScaled(sum, m.Data, 1)
				r.Release(m.Data)
			}
			apply(sum, 1/float32(workers))
			for w := 1; w <= workers; w++ {
				if err := r.Send(w, TagGrad, params, mpi.SimActual); err != nil {
					return err
				}
			}
		}
	case PSAsync:
		// A done-counting server tracks distinct finished workers: a worker
		// restarted right after sending TagDone replays it, and a duplicate
		// must not shut the server down while slower workers still train.
		finished := make(map[int]bool)
		for done := 0; cfg.UntilDone && len(finished) < workers || !cfg.UntilDone && done < workers*cfg.StepsPerWorker; done++ {
			m, err := r.Recv(ctx, AnySource)
			if err != nil {
				return err
			}
			if cfg.UntilDone && m.Tag == TagDone {
				r.Release(m.Data)
				finished[m.Src] = true
				continue
			}
			if err := checkLen(r, m, len(params)); err != nil {
				return err
			}
			apply(m.Data, 1)
			r.Release(m.Data)
			if err := r.Send(m.Src, TagGrad, params, mpi.SimActual); err != nil {
				return err
			}
		}
	case PSStale:
		steps := make([]int, r.Size())
		owed := make(map[int]bool) // workers whose reply is withheld
		release := func() error {
			// Slowest active worker defines the staleness horizon.
			minSteps := -1
			for w := 1; w <= workers; w++ {
				if steps[w] >= cfg.StepsPerWorker {
					continue // finished workers no longer constrain anyone
				}
				if minSteps < 0 || steps[w] < minSteps {
					minSteps = steps[w]
				}
			}
			for src := range owed {
				if minSteps < 0 || steps[src] <= minSteps+cfg.Staleness {
					if err := r.Send(src, TagGrad, params, mpi.SimActual); err != nil {
						return err
					}
					delete(owed, src)
				}
			}
			return nil
		}
		for done := 0; done < workers*cfg.StepsPerWorker; done++ {
			m, err := recvLen(ctx, r, AnySource, len(params))
			if err != nil {
				return err
			}
			apply(m.Data, 1)
			r.Release(m.Data)
			steps[m.Src]++
			owed[m.Src] = true
			if err := release(); err != nil {
				return err
			}
		}
		if err := release(); err != nil {
			return err
		}
		if len(owed) > 0 {
			return fmt.Errorf("dist: PS server shut down with %d unreleased workers", len(owed))
		}
	default:
		return fmt.Errorf("dist: unknown PS mode %d", cfg.Mode)
	}
	return nil
}

// CentralizedWorker is the worker side of the parameter-server schemes: it
// computes local gradients, ships them to rank 0, and installs whatever
// parameters the server returns. It satisfies training.Optimizer.
type CentralizedWorker struct {
	e executor.GraphExecutor
	r Rank
	// Loss is the loss tensor name (default "loss").
	Loss string
}

// NewCentralizedWorker binds an executor and a rank to the server on rank 0.
func NewCentralizedWorker(e executor.GraphExecutor, r Rank) *CentralizedWorker {
	return &CentralizedWorker{e: e, r: r, Loss: "loss"}
}

// Finish tells a done-counting server (ServerConfig.UntilDone) that this
// worker has sent its last gradient; the server exits once every worker
// has finished. No-op semantics on fixed-count servers: don't call it there.
func (o *CentralizedWorker) Finish() error {
	return o.r.Send(0, TagDone, nil, mpi.SimActual)
}

// Train computes a local gradient, sends the gradient slab to the server,
// and copies the parameters it returns into the parameter slab.
func (o *CentralizedWorker) Train(ctx context.Context, feeds map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	out, err := o.e.InferenceAndBackprop(ctx, feeds, o.Loss)
	if err != nil {
		return nil, err
	}
	net := o.e.Network()
	if err := o.r.Send(0, TagGrad, net.GradSlab().Data(), mpi.SimActual); err != nil {
		return nil, err
	}
	params := net.ParamSlab().Data()
	m, err := recvLen(ctx, o.r, 0, len(params))
	if err != nil {
		return nil, err
	}
	copy(params, m.Data)
	o.r.Release(m.Data)
	return out, nil
}

// Executor returns the bound executor.
func (o *CentralizedWorker) Executor() executor.GraphExecutor { return o.e }
