package d500

import (
	"errors"
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/training"
)

// Exact-resume checkpointing. A training checkpoint (D5NX version 2) is the
// model plus everything else the trajectory depends on — optimizer slots,
// step/epoch counters, and the sampler's order/RNG cursor — captured at a
// step boundary and written atomically. Resuming from it reproduces the
// uninterrupted run's loss trajectory bitwise (stochastic operators with
// executor-local RNGs, i.e. dropout, are reproducible only per-build).

// Checkpoint is a loaded training checkpoint: the model snapshot plus the
// run state needed to continue it exactly. Load one with Resume, Open its
// Model on a session configured like the original run, and pass the
// checkpoint through TrainConfig.Resume.
type Checkpoint struct {
	model *graph.Model
	train *graph.TrainState
}

// Model returns the checkpointed model snapshot (weights as of the
// checkpointed step). Open it before training, and build the run's
// samplers/optimizer with the same configuration as the original run —
// cursors and slots are restored from the checkpoint on top.
func (c *Checkpoint) Model() *graph.Model { return c.model }

// Step returns the number of optimization steps completed at capture.
func (c *Checkpoint) Step() int { return c.train.Step }

// EpochsDone returns the number of full epochs completed at capture.
func (c *Checkpoint) EpochsDone() int { return c.train.EpochsDone }

// Resume loads a training checkpoint written by a Session.Train run with
// TrainConfig.CheckpointPath set. Plain model files (Session.Save output)
// are rejected: they carry no training state — use Load for those.
func Resume(path string) (*Checkpoint, error) {
	if path == "" {
		return nil, errors.New("d500: Resume requires a path")
	}
	c, err := graph.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("d500: loading checkpoint from %s: %w", path, err)
	}
	if c.Train == nil {
		return nil, fmt.Errorf("d500: %s is a plain model, not a training checkpoint (use d500.Load)", path)
	}
	return &Checkpoint{model: c.Model, train: c.Train}, nil
}

// checkpointable returns the run's optimizer and training sampler as the
// checkpoint interfaces, or an error naming the one that is not.
func checkpointable(cfg TrainConfig) (training.CheckpointableOptimizer, training.CheckpointableSampler, error) {
	co, ok := cfg.Optimizer.(training.CheckpointableOptimizer)
	if !ok {
		return nil, nil, fmt.Errorf("d500: optimizer %T does not support checkpointing (implement training.CheckpointableOptimizer)", cfg.Optimizer)
	}
	cs, ok := cfg.Train.(training.CheckpointableSampler)
	if !ok {
		return nil, nil, fmt.Errorf("d500: sampler %T does not support checkpointing (implement training.CheckpointableSampler)", cfg.Train)
	}
	return co, cs, nil
}

// restoreCheckpoint rewinds session, optimizer, sampler and runner to a
// checkpoint. The caller must already have opened the checkpoint's model on
// the session.
func restoreCheckpoint(s *Session, cfg TrainConfig, r *training.Runner, ck *Checkpoint) error {
	if s.model != ck.model {
		return errors.New("d500: TrainConfig.Resume checkpoint's model is not the session's open model (Open(checkpoint.Model()) first)")
	}
	co, cs, err := checkpointable(cfg)
	if err != nil {
		return err
	}
	ts := ck.train
	if err := training.RestoreTrainState(ts, co, cs); err != nil {
		return fmt.Errorf("d500: %w", err)
	}
	r.ResumeAt(ts.Step, ts.EpochsDone, ts.MidEpoch)
	return nil
}
