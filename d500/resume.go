package d500

import (
	"errors"
	"fmt"
	"sync"

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

// checkpointer drives the asynchronous checkpoint pipeline of a Train run:
// the training goroutine captures consistent snapshots at step/epoch
// boundaries and hands them to one background writer; completions come
// back over a channel and are emitted as CheckpointSaved events from the
// training goroutine (respecting the Hook single-goroutine contract). A
// snapshot arriving while the writer is still busy is skipped — cadence
// degrades under slow disks, consistency never does.
type checkpointer struct {
	sess  *Session
	path  string
	every int // steps; 0 = every epoch boundary
	co    training.CheckpointableOptimizer
	cs    training.CheckpointableSampler
	r     *training.Runner

	jobs    chan *graph.Checkpoint
	results chan ckptResult
	wg      sync.WaitGroup

	// lastMid tracks the most recent boundary type (step vs epoch), so the
	// final checkpoint finish writes is stamped correctly: a run cancelled
	// mid-epoch resumes its sampler cursor, a run that stopped on an epoch
	// boundary starts the next epoch fresh. Training-goroutine only.
	lastMid bool

	mu      sync.Mutex
	failure error
	cancel  func()
}

type ckptResult struct {
	step, epoch int
	err         error
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

// newCheckpointer validates that the run is checkpointable and starts the
// writer goroutine. cancel aborts the run when a write fails.
func newCheckpointer(s *Session, cfg TrainConfig, r *training.Runner, cancel func()) (*checkpointer, error) {
	co, cs, err := checkpointable(cfg)
	if err != nil {
		return nil, err
	}
	ck := &checkpointer{
		sess:    s,
		path:    cfg.CheckpointPath,
		every:   s.cfg.ckptEvery,
		co:      co,
		cs:      cs,
		r:       r,
		jobs:    make(chan *graph.Checkpoint, 1),
		results: make(chan ckptResult, 4),
		cancel:  cancel,
	}
	if cfg.Resume != nil {
		ck.lastMid = cfg.Resume.train.MidEpoch
	}
	ck.wg.Add(1)
	go ck.writer()
	return ck, nil
}

// restore rewinds session, optimizer, sampler and runner to a checkpoint.
// The caller must already have opened the checkpoint's model on the session.
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

// snapshot captures a consistent checkpoint of the run at the current step
// boundary: a structural model clone with cloned parameter tensors (fused
// optimizers update weights in place, so the live tensors keep mutating
// while the writer encodes), the optimizer's deep-copied state, and the
// sampler cursor.
func (ck *checkpointer) snapshot(midEpoch bool) *graph.Checkpoint {
	m := ck.sess.model.ShallowClone()
	for name, t := range m.Initializers {
		m.Initializers[name] = t.Clone()
	}
	return &graph.Checkpoint{Model: m,
		Train: training.CaptureTrainState(ck.r.Steps(), ck.r.EpochsDone(), midEpoch, ck.co, ck.cs)}
}

// afterStep is chained into the runner's AfterStep hook.
func (ck *checkpointer) afterStep(step int) {
	ck.lastMid = true
	ck.drainResults()
	if ck.every > 0 && step%ck.every == 0 {
		ck.submit(ck.snapshot(true))
	}
}

// afterEpoch is chained into the runner's AfterEpoch hook.
func (ck *checkpointer) afterEpoch() {
	ck.lastMid = false
	ck.drainResults()
	if ck.every == 0 {
		ck.submit(ck.snapshot(false))
	}
}

// submit hands a snapshot to the writer without blocking; if the writer is
// still busy with the previous checkpoint, this one is skipped.
func (ck *checkpointer) submit(c *graph.Checkpoint) {
	select {
	case ck.jobs <- c:
	default:
	}
}

// writer is the background goroutine: one atomic file write per snapshot.
func (ck *checkpointer) writer() {
	defer ck.wg.Done()
	for c := range ck.jobs {
		err := graph.SaveCheckpoint(c, ck.path)
		if err != nil {
			ck.mu.Lock()
			if ck.failure == nil {
				ck.failure = fmt.Errorf("d500: writing checkpoint %s: %w", ck.path, err)
			}
			ck.mu.Unlock()
			ck.cancel() // abort the run: silent checkpoint loss is worse
		}
		ck.results <- ckptResult{step: c.Train.Step, epoch: c.Train.EpochsDone, err: err}
	}
}

// drainResults emits CheckpointSaved events for completed writes. It runs
// on the training goroutine, keeping the Hook contract.
func (ck *checkpointer) drainResults() {
	for {
		select {
		case res := <-ck.results:
			if res.err == nil {
				ck.sess.emit(CheckpointSaved{Step: res.step, Epoch: res.epoch, Path: ck.path})
			}
		default:
			return
		}
	}
}

// finish stops the writer, flushes pending completions, writes a final
// synchronous checkpoint of the run's end state, and returns the first
// write failure (if any). It runs on the training goroutine.
func (ck *checkpointer) finish() error {
	close(ck.jobs)
	ck.wg.Wait()
	ck.drainResults()
	ck.mu.Lock()
	failure := ck.failure
	ck.mu.Unlock()
	if failure != nil {
		return failure
	}
	final := ck.snapshot(ck.lastMid)
	if err := graph.SaveCheckpoint(final, ck.path); err != nil {
		return fmt.Errorf("d500: writing final checkpoint %s: %w", ck.path, err)
	}
	ck.sess.emit(CheckpointSaved{Step: final.Train.Step, Epoch: final.Train.EpochsDone, Path: ck.path})
	return nil
}
