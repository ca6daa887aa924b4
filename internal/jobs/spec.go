// Package jobs is the FfDL-shaped control plane over the networked
// distributed-training stack: a trainer service that accepts JSON job
// specs, a lifecycle manager that spawns one OS process per rank (a
// parameter server plus workers, or a decentralized ring), monitors them
// through heartbeats, restarts dead workers from their exact-resume
// checkpoints, and a job monitor speaking HTTP (/v1/jobs, /v1/jobs/{id}).
// The data plane underneath is internal/transport: every rank process
// speaks the TCP fabric, so the same dist optimizers that run on the
// in-process simulator train across real processes.
package jobs

import (
	"fmt"
	"strings"

	"deep500/internal/obs/trace"
)

// Scheme is a distributed training scheme the control plane can launch.
type Scheme string

const (
	// SchemeASGD is the asynchronous parameter server (HOGWILD-style).
	// Rank 0 serves in done-counting mode, so workers are restartable: a
	// replayed gradient after a checkpoint restart is just one more
	// asynchronous update.
	SchemeASGD Scheme = "asgd"
	// SchemePSSGD is the synchronous parameter server. Rounds assume exact
	// per-worker step counts, so a worker loss fails the job.
	SchemePSSGD Scheme = "pssgd"
	// SchemeDSGD is decentralized allreduce-averaged SGD over the ring.
	// The ring blocks on a dead member, so a worker loss fails the job.
	SchemeDSGD Scheme = "dsgd"
)

// Centralized reports whether the scheme dedicates rank 0 to a parameter
// server.
func (s Scheme) Centralized() bool { return s == SchemeASGD || s == SchemePSSGD }

// Restartable reports whether a dead worker can rejoin from its checkpoint
// without corrupting the scheme's consistency model. Only the asynchronous
// server qualifies: sync rounds and the allreduce ring both assume a fixed
// member set in lockstep.
func (s Scheme) Restartable() bool { return s == SchemeASGD }

// Spec is a training job specification, submitted as JSON to
// POST /v1/jobs. Zero fields take the documented defaults.
type Spec struct {
	// Name labels the job in listings (default "train").
	Name string `json:"name,omitempty"`
	// Scheme selects the distribution scheme (default asgd).
	Scheme Scheme `json:"scheme,omitempty"`
	// Model names the model architecture (currently "mlp").
	Model string `json:"model,omitempty"`
	// Hidden is the MLP hidden width (default 32).
	Hidden int `json:"hidden,omitempty"`
	// Optimizer is the update rule ("sgd", "momentum", "adam", ...; the
	// server applies it in centralized schemes, each worker in dsgd).
	Optimizer string `json:"optimizer,omitempty"`
	// LR is the learning rate (default 0.05).
	LR float64 `json:"lr,omitempty"`
	// Workers is the number of training workers (default 2); centralized
	// schemes add a parameter-server rank on top.
	Workers int `json:"workers,omitempty"`
	// Epochs is the number of passes over each worker's shard (default 2).
	Epochs int `json:"epochs,omitempty"`
	// Batch is the per-worker minibatch (default 8).
	Batch int `json:"batch,omitempty"`
	// Samples is the synthetic training-set size (default 512).
	Samples int `json:"samples,omitempty"`
	// Seed fixes the model init, data generation and shard permutation.
	Seed uint64 `json:"seed,omitempty"`
	// CheckpointDir, when set, enables exact-resume checkpointing: each
	// worker writes rank-<r>.d5nx there and a restarted worker resumes from
	// it (required for restart recovery; without it a restarted worker
	// rejoins from step 0).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// CheckpointEvery is the checkpoint cadence in steps (default 5).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// QuantBits, when 1..8, ships gradients quantized at that width.
	QuantBits uint `json:"quant_bits,omitempty"`
	// MaxRestarts bounds per-worker restarts (default 2).
	MaxRestarts int `json:"max_restarts,omitempty"`
	// Trace is the job's trace context in d500-trace header form
	// ("<16hex>-<16hex>"). A traced manager overwrites it on submit with
	// its own job span, so every rank process fetching the spec joins the
	// same trace; a submitter may pre-set it to graft the job onto an
	// existing trace.
	Trace string `json:"trace,omitempty"`
}

// WithDefaults returns the spec with zero fields filled in.
func (s Spec) WithDefaults() Spec {
	if s.Name == "" {
		s.Name = "train"
	}
	if s.Scheme == "" {
		s.Scheme = SchemeASGD
	}
	if s.Model == "" {
		s.Model = "mlp"
	}
	if s.Hidden <= 0 {
		s.Hidden = 32
	}
	if s.Optimizer == "" {
		s.Optimizer = "sgd"
	}
	if s.LR <= 0 {
		s.LR = 0.05
	}
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.Epochs <= 0 {
		s.Epochs = 2
	}
	if s.Batch <= 0 {
		s.Batch = 8
	}
	if s.Samples <= 0 {
		s.Samples = 512
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 5
	}
	if s.MaxRestarts <= 0 {
		s.MaxRestarts = 2
	}
	return s
}

// Validate rejects structurally impossible specs. Call on a
// defaults-applied spec.
func (s Spec) Validate() error {
	switch s.Scheme {
	case SchemeASGD, SchemePSSGD, SchemeDSGD:
	default:
		return fmt.Errorf("jobs: unknown scheme %q (asgd, pssgd, dsgd)", s.Scheme)
	}
	if strings.ToLower(s.Model) != "mlp" {
		return fmt.Errorf("jobs: unknown model %q (mlp)", s.Model)
	}
	if _, err := buildRule(s); err != nil {
		return err
	}
	if s.QuantBits > 8 {
		return fmt.Errorf("jobs: quant_bits %d out of range [0, 8]", s.QuantBits)
	}
	if s.StepsPerEpoch() < 1 {
		return fmt.Errorf("jobs: %d samples across %d workers at batch %d yields zero steps per epoch",
			s.Samples, s.Workers, s.Batch)
	}
	if s.Trace != "" {
		if _, ok := trace.Parse(s.Trace); !ok {
			return fmt.Errorf("jobs: malformed trace context %q (want <16hex>-<16hex>)", s.Trace)
		}
	}
	return nil
}

// WorldSize is the rank count: workers plus the parameter server for
// centralized schemes.
func (s Spec) WorldSize() int {
	if s.Scheme.Centralized() {
		return s.Workers + 1
	}
	return s.Workers
}

// WorkerIndex maps a rank to its 0-based worker index (data shard).
func (s Spec) WorkerIndex(rank int) int {
	if s.Scheme.Centralized() {
		return rank - 1
	}
	return rank
}

// StepsPerEpoch is each worker's step count per epoch: the dataset is
// sharded evenly and trailing partial batches are dropped, so every worker
// takes exactly this many steps.
func (s Spec) StepsPerEpoch() int { return s.Samples / s.Workers / s.Batch }

// TotalSteps is the per-worker step budget of the whole job.
func (s Spec) TotalSteps() int { return s.StepsPerEpoch() * s.Epochs }

// CheckpointPath is worker rank's checkpoint file ("" when checkpointing
// is off).
func (s Spec) CheckpointPath(rank int) string {
	if s.CheckpointDir == "" {
		return ""
	}
	return fmt.Sprintf("%s/rank-%d.d5nx", s.CheckpointDir, rank)
}
