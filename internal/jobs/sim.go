package jobs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"deep500/internal/executor"
	"deep500/internal/metrics"
	"deep500/internal/mpi"
	"deep500/internal/training"
)

// SimResult is a job's outcome on the simulated fabric.
type SimResult struct {
	// Workers holds each rank's role and final step and loss, indexed by
	// rank (a parameter server reports step 0).
	Workers []Worker
	// Makespan is the slowest rank's virtual time under the cost model.
	Makespan time.Duration
	// Volume is the traffic of the whole world.
	Volume *metrics.CommunicationVolume
	// Accuracy is the first worker's accuracy on the job's held-out
	// samples after training.
	Accuracy float64
}

// Simulate runs spec on the in-process simulator: one goroutine per rank
// over the virtual α-β network of cost, each running the role RunRank
// ends with, so a scheme trains here exactly as its TCP job does. The
// first rank to fail cancels the others, and its error is returned.
// Every call is a new job: its checkpoints go under a fresh "sim-…" id.
func Simulate(ctx context.Context, spec Spec, cost mpi.CostModel) (*SimResult, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	job, err := spec.claimJobID(func() string { return fmt.Sprintf("sim-%016x", rand.Uint64()) })
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failed   sync.Once
		firstErr error
		trained  executor.GraphExecutor
	)
	first := spec.WorldSize() - spec.Workers // worker 0's rank
	progress := make([]rankProgress, spec.WorldSize())
	makespan, world, err := mpi.Run(spec.WorldSize(), cost, func(r *mpi.Rank) error {
		e, err := runRole(ctx, r, spec, job, &progress[r.ID()], nil)
		if err != nil {
			failed.Do(func() { firstErr = fmt.Errorf("jobs: rank %d: %w", r.ID(), err); cancel() })
		}
		if r.ID() == first {
			trained = e
		}
		return err
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err != nil { // a panic, which mpi.Run recovered
		return nil, err
	}
	res := &SimResult{Makespan: makespan, Volume: world.Volume}
	for rank := range progress {
		step, loss := progress[rank].load()
		res.Workers = append(res.Workers, Worker{Rank: rank, Role: spec.Role(rank), Step: step, Loss: loss})
	}
	_, test := buildData(spec)
	acc, err := training.EvaluateExecutor(ctx, trained, training.NewSequentialSampler(test, 64), "acc")
	if err != nil {
		return nil, err
	}
	res.Accuracy = acc
	return res, nil
}
