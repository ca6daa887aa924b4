// Package jobs runs the distributed-training schemes. Its rank program —
// the parameter server on rank 0 of a centralized scheme, the training
// loop on every other rank — is the only one in the repository, and it
// runs on both fabrics: Simulate runs a job's ranks as goroutines over the
// in-process simulator's virtual α-β network (d500dist -role sim), and
// RunRank runs one rank as an OS process over the TCP transport. Above the
// TCP path sits an FfDL-shaped control plane: a trainer service that
// accepts JSON job specs, a lifecycle manager that spawns one process per
// rank, monitors them through heartbeats and restarts dead workers from
// their exact-resume checkpoints, and a job monitor speaking HTTP
// (/v1/jobs, /v1/jobs/{id}).
package jobs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"deep500/internal/dist"
	"deep500/internal/mpi"
	"deep500/internal/obs/trace"
	"deep500/internal/training"
)

// Scheme is a distributed training scheme. Each one is a row of the scheme
// table, which fixes everything the scheme decides on either fabric.
type Scheme string

// The schemes, in table order.
const (
	// SchemeDSGD is decentralized allreduce-averaged SGD over the ring.
	SchemeDSGD Scheme = "dsgd"
	// SchemeDPSGD averages parameters with the ring neighbours after each
	// local step (gossip).
	SchemeDPSGD Scheme = "dpsgd"
	// SchemeMAvg allreduce-averages the models every second step.
	SchemeMAvg Scheme = "mavg"
	// SchemeSparse allreduces the top 20 % of each gradient and keeps the
	// rest as a residual.
	SchemeSparse Scheme = "sparse"
	// SchemePSSGD is the synchronous parameter server.
	SchemePSSGD Scheme = "pssgd"
	// SchemeASGD is the asynchronous parameter server (HOGWILD-style).
	SchemeASGD Scheme = "asgd"
	// SchemeStale is the stale-synchronous parameter server: a worker runs
	// at most two steps ahead of the slowest.
	SchemeStale Scheme = "stale"
)

// schemeDef is one row of the scheme table.
type schemeDef struct {
	name Scheme
	// server configures rank 0's parameter server; nil for a decentralized
	// scheme. The rank program fills in StepsPerWorker.
	server *dist.ServerConfig
	// worker wraps a worker's driver in the scheme's optimizer.
	worker func(d *training.Driver, r dist.Rank) training.Optimizer
}

// schemes is the scheme table: the one list of names Validate, the
// d500dist flags and d500info read.
var schemes = []schemeDef{
	{name: SchemeDSGD, worker: func(d *training.Driver, r dist.Rank) training.Optimizer {
		return dist.NewConsistentDecentralized(d, r, mpi.AllreduceRing)
	}},
	{name: SchemeDPSGD, worker: func(d *training.Driver, r dist.Rank) training.Optimizer {
		return dist.NewNeighborAveraging(d, r)
	}},
	{name: SchemeMAvg, worker: func(d *training.Driver, r dist.Rank) training.Optimizer {
		return dist.NewModelAveraging(d, r, 2)
	}},
	{name: SchemeSparse, worker: func(d *training.Driver, r dist.Rank) training.Optimizer {
		return dist.NewSparseDecentralized(d, r, 0.2)
	}},
	{name: SchemePSSGD, server: &dist.ServerConfig{Mode: dist.PSSync}, worker: centralizedWorker},
	// The asynchronous server counts finished workers instead of steps, so
	// a worker restarted from its checkpoint may replay gradients.
	{name: SchemeASGD, server: &dist.ServerConfig{Mode: dist.PSAsync, UntilDone: true}, worker: centralizedWorker},
	{name: SchemeStale, server: &dist.ServerConfig{Mode: dist.PSStale, Staleness: 2}, worker: centralizedWorker},
}

// centralizedWorker ships each gradient to the server on rank 0, which
// applies the update rule; the driver contributes only its executor.
func centralizedWorker(d *training.Driver, r dist.Rank) training.Optimizer {
	return dist.NewCentralizedWorker(d.Executor(), r)
}

// Schemes lists every scheme in table order.
func Schemes() []Scheme {
	out := make([]Scheme, len(schemes))
	for i, d := range schemes {
		out[i] = d.name
	}
	return out
}

// def returns s's row of the scheme table (the zero row for an unknown
// name, which Validate rejects).
func (s Scheme) def() schemeDef {
	for _, d := range schemes {
		if d.name == s {
			return d
		}
	}
	return schemeDef{}
}

// Centralized reports whether the scheme dedicates rank 0 to a parameter
// server.
func (s Scheme) Centralized() bool { return s.def().server != nil }

// Restartable reports whether a dead worker can rejoin from its checkpoint
// without corrupting the scheme's consistency model: only a done-counting
// asynchronous server qualifies. Sync and stale rounds and the
// decentralized rings all assume a fixed member set in lockstep, so a
// worker loss fails their job.
func (s Scheme) Restartable() bool {
	srv := s.def().server
	return srv != nil && srv.UntilDone
}

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
	// server applies it in centralized schemes, each worker in the others).
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
	// worker writes <job id>/rank-<r>.d5nx there and a restarted worker of
	// the same job resumes from it (required for restart recovery; without
	// it a restarted worker rejoins from step 0).
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// CheckpointEvery is the checkpoint cadence in steps (default 5).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
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
	if s.Scheme.def().worker == nil {
		names := make([]string, len(schemes))
		for i, d := range schemes {
			names[i] = string(d.name)
		}
		return fmt.Errorf("jobs: unknown scheme %q (%s)", s.Scheme, strings.Join(names, ", "))
	}
	if strings.ToLower(s.Model) != "mlp" {
		return fmt.Errorf("jobs: unknown model %q (mlp)", s.Model)
	}
	if _, err := buildRule(s); err != nil {
		return err
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

// Role names rank's part in the job: "ps" for the parameter server on rank
// 0 of a centralized scheme, "worker" otherwise.
func (s Spec) Role(rank int) string {
	if s.Scheme.Centralized() && rank == 0 {
		return "ps"
	}
	return "worker"
}

// StepsPerEpoch is each worker's step count per epoch: the dataset is
// sharded evenly and trailing partial batches are dropped, so every worker
// takes exactly this many steps.
func (s Spec) StepsPerEpoch() int { return s.Samples / s.Workers / s.Batch }

// TotalSteps is the per-worker step budget of the whole job.
func (s Spec) TotalSteps() int { return s.StepsPerEpoch() * s.Epochs }

// checkpoints reports whether the job's workers checkpoint: only a
// restartable scheme's do, and only into a CheckpointDir.
func (s Spec) checkpoints() bool { return s.CheckpointDir != "" && s.Scheme.Restartable() }

// CheckpointPath is the checkpoint file of worker rank in job ("" when
// checkpointing is off). Each job writes under a directory of its own, so a
// job never resumes from another job's checkpoints.
func (s Spec) CheckpointPath(job string, rank int) string {
	if s.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(s.CheckpointDir, job, fmt.Sprintf("rank-%d.d5nx", rank))
}

// claimJobID returns the first id from next whose checkpoint directory does
// not exist yet, creating it. It calls next once and creates nothing when
// the job does not checkpoint. Checking for the directory, not only for a
// new id, keeps a job from resuming a checkpoint that an earlier process
// left under the same id.
func (s Spec) claimJobID(next func() string) (string, error) {
	if !s.checkpoints() {
		return next(), nil
	}
	if err := os.MkdirAll(s.CheckpointDir, 0o755); err != nil {
		return "", fmt.Errorf("jobs: checkpoint dir: %w", err)
	}
	for {
		id := next()
		err := os.Mkdir(filepath.Join(s.CheckpointDir, id), 0o755)
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", fmt.Errorf("jobs: checkpoint dir: %w", err)
		}
	}
}
