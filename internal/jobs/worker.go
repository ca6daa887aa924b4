package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/obs/trace"
	"deep500/internal/training"
	"deep500/internal/transport"
)

// RankConfig is everything a rank process needs to join its job: identity
// plus the control-plane URL. The spec itself is fetched from the control
// plane, so restarted processes always see the authoritative config.
type RankConfig struct {
	JobID      string
	Rank       int
	ControlURL string
	// HeartbeatMillis overrides the heartbeat cadence (default 500).
	HeartbeatMillis int
	// Tracer, when non-nil and the fetched spec carries a trace context,
	// records a "dist.rank" span tree for this rank and uploads it to the
	// control plane on completion.
	Tracer *trace.Tracer

	// stepGate, when non-nil, is called by a worker at the end of every
	// training step (after the step's checkpoint). Only this package's
	// tests set it, through LocalRunner, to park a rank at a chosen step
	// until a kill has landed instead of racing the job against the clock.
	stepGate func(ctx context.Context, rank, step int)
}

// RunRank is the body of one rank process (d500dist -role ps|worker): it
// registers its transport address with the control plane, waits for the
// peers it must dial, joins the TCP fabric, and runs its role — the
// parameter-server loop on rank 0 of centralized schemes, the training
// loop otherwise. Workers of restartable schemes checkpoint to the spec's
// CheckpointDir and resume from it when the lifecycle manager restarts
// them after a crash.
func RunRank(ctx context.Context, rc RankConfig) (err error) {
	cl := &controlClient{base: rc.ControlURL, jobID: rc.JobID,
		http: &http.Client{Timeout: 10 * time.Second}}
	job, err := cl.fetchJob(ctx)
	if err != nil {
		return fmt.Errorf("jobs: rank %d fetching job: %w", rc.Rank, err)
	}
	spec := job.Spec
	world := spec.WorldSize()
	if rc.Rank < 0 || rc.Rank >= world {
		return fmt.Errorf("jobs: rank %d out of range for world %d", rc.Rank, world)
	}

	// Join the job's trace: the manager stamped its "dist.job" span into
	// the spec, so this rank's subtree grafts onto it; the spans upload
	// back at completion for one coherent tree across all processes.
	var rankSpan *trace.Span
	if rm, ok := trace.Parse(spec.Trace); ok && rc.Tracer.Enabled() {
		rankSpan = rc.Tracer.StartRemote(rm, "dist.rank",
			trace.Int("rank", rc.Rank), trace.String("role", spec.Role(rc.Rank)))
		defer func() {
			rankSpan.SetError(err)
			rankSpan.End()
			// Best-effort upload: the trace is retained locally either way.
			if td, ok := rc.Tracer.Recorder().Trace(rm.Trace); ok {
				cl.uploadSpans(ctx, td.Spans)
			}
		}()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("jobs: rank %d listening: %w", rc.Rank, err)
	}
	// transport.New takes ownership of ln and closes it.
	if err := cl.register(ctx, rc.Rank, ln.Addr().String(), os.Getpid()); err != nil {
		ln.Close()
		return fmt.Errorf("jobs: rank %d registering: %w", rc.Rank, err)
	}

	// Which lower ranks must be dialable before the fabric can form: just
	// the server in centralized schemes (star), every lower rank in the
	// decentralized ring.
	var dialRanks []int
	if spec.Scheme.Centralized() {
		if rc.Rank > 0 {
			dialRanks = []int{0}
		} else {
			dialRanks = []int{}
		}
	}
	peers, err := cl.awaitPeers(ctx, rc.Rank, dialRanks)
	if err != nil {
		ln.Close()
		return err
	}

	rank, err := transport.New(transport.Options{
		ID: rc.Rank, Size: world,
		Listener:       ln,
		Peers:          peers,
		DialRanks:      dialRanks,
		BestEffortSend: spec.Role(rc.Rank) == "ps",
	})
	if err != nil {
		return fmt.Errorf("jobs: rank %d joining fabric: %w", rc.Rank, err)
	}
	defer rank.Close()
	// Stamp this rank's span into outbound transport frames so a peer
	// blocked in a receive can attribute the wait to the sender's trace.
	if rankSpan != nil {
		rank.SetTraceContext(rankSpan.TraceID(), rankSpan.SpanID())
	}

	// Receives return when ctx ends, but a cancelled rank (killed by the
	// manager) may also be blocked writing to a stalled peer; closing the
	// fabric wakes it immediately instead of waiting out the I/O timeout.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			rank.Close()
		case <-watchdogDone:
		}
	}()

	// Heartbeat loop: a side goroutine posting the training loop's atomic
	// progress until the rank finishes.
	var progress rankProgress
	hbEvery := time.Duration(rc.HeartbeatMillis) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = 500 * time.Millisecond
	}
	hbCtx, hbStop := context.WithCancel(ctx)
	defer hbStop()
	go func() {
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				step, loss := progress.load()
				cl.heartbeat(hbCtx, rc.Rank, step, loss)
			}
		}
	}()

	runCtx := ctx
	if rankSpan != nil {
		runCtx = trace.NewContext(ctx, rankSpan)
	}
	if _, err := runRole(runCtx, rank, spec, rc.JobID, &progress, rc.stepGate); err != nil {
		return err
	}
	step, loss := progress.load()
	if err := cl.done(ctx, rc.Rank, step, loss); err != nil {
		return fmt.Errorf("jobs: rank %d reporting done: %w", rc.Rank, err)
	}
	return nil
}

// rankProgress is the step/loss cell shared between the training loop and
// the heartbeat goroutine.
type rankProgress struct {
	step atomic.Int64
	loss atomic.Uint64
}

func (p *rankProgress) store(step int, loss float64) {
	p.step.Store(int64(step))
	p.loss.Store(math.Float64bits(loss))
}

func (p *rankProgress) load() (int, float64) {
	return int(p.step.Load()), math.Float64frombits(p.loss.Load())
}

// buildModel constructs the spec's model deterministically (same seed on
// every rank → identical initial weights, matching the simulator runs).
func buildModel(spec Spec) *graph.Model {
	return models.MLP(models.Config{
		Classes: 4, Channels: 1, Height: 8, Width: 8,
		WithHead: true, Seed: spec.Seed,
	}, spec.Hidden)
}

// buildData generates the job's synthetic training set (identical on every
// rank; the shard sampler splits it) and Samples/4 held-out samples
// of the same task, which only Simulate evaluates.
func buildData(spec Spec) (train, test *training.InMemoryDataset) {
	return training.SyntheticSplit(spec.Samples, spec.Samples/4, 4, []int{1, 8, 8}, 0.25, spec.Seed)
}

// runRole runs rank's part of job on either fabric: the parameter server
// on rank 0 of a centralized scheme, the training loop on every other rank.
// A worker returns its trained executor.
func runRole(ctx context.Context, rank dist.Rank, spec Spec, job string, progress *rankProgress, stepGate func(ctx context.Context, rank, step int)) (executor.GraphExecutor, error) {
	if spec.Role(rank.ID()) == "ps" {
		return nil, runPS(ctx, rank, spec)
	}
	return runTrainLoop(ctx, rank, spec, job, progress, stepGate)
}

// runPS is rank 0 of a centralized scheme: the parameter server owning the
// authoritative weights, configured by the scheme's row. The asynchronous
// server serves until every worker reports done (restart-tolerant); sync
// and stale servers serve a fixed per-worker step count.
func runPS(ctx context.Context, rank dist.Rank, spec Spec) error {
	rule, err := training.RuleByName(spec.Optimizer, float32(spec.LR))
	if err != nil {
		return err
	}
	e := executor.MustNew(buildModel(spec))
	cfg := *spec.Scheme.def().server
	cfg.StepsPerWorker = spec.TotalSteps()
	return dist.RunPSServer(ctx, rank, rule, e.Network().ParamSlab().Data(), cfg)
}

// runTrainLoop is a worker rank: shard the data, train for the spec's
// epochs through the scheme's optimizer, checkpoint on cadence, resume
// from the checkpoint when job has one.
func runTrainLoop(ctx context.Context, rank dist.Rank, spec Spec, job string, progress *rankProgress, stepGate func(ctx context.Context, rank, step int)) (executor.GraphExecutor, error) {
	rankID := rank.ID()
	model := buildModel(spec)
	ckptPath := ""
	if spec.checkpoints() {
		ckptPath = spec.CheckpointPath(job, rankID)
		if err := os.MkdirAll(filepath.Dir(ckptPath), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: rank %d checkpoint dir: %w", rankID, err)
		}
	}

	// Resume: a checkpoint left by a previous incarnation replaces the
	// fresh model and rewinds the sampler cursor and step counter.
	var resume *graph.TrainState
	if ckptPath != "" {
		if ck, err := graph.LoadCheckpoint(ckptPath); err == nil && ck.Train != nil {
			model = ck.Model
			resume = ck.Train
		} else if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("jobs: rank %d loading checkpoint %s: %w", rankID, ckptPath, err)
		}
	}

	e, err := executor.New(model)
	if err != nil {
		return nil, fmt.Errorf("jobs: rank %d building model: %w", rankID, err)
	}
	e.SetTraining(true)
	rule, err := training.RuleByName(spec.Optimizer, float32(spec.LR))
	if err != nil {
		return nil, err
	}
	opt := spec.Scheme.def().worker(training.NewDriver(e, rule), rank)
	train, _ := buildData(spec)
	sampler := training.NewShardSampler(train, spec.Batch, spec.WorkerIndex(rankID), spec.Workers, spec.Seed)

	// The runner owns the step loop, the epoch resets of the shard sampler
	// (which yields StepsPerEpoch batches an epoch) and the checkpoint
	// cadence. Parameter-server schemes keep optimizer slots on the server,
	// so the worker checkpoints none.
	r := &training.Runner{Opt: opt, TrainSet: sampler, LossOutput: "loss", AccOutput: "acc",
		AfterStep: func(step int, loss, _ float64) {
			progress.store(step, loss)
			if stepGate != nil {
				stepGate(ctx, rankID, step)
			}
		}}
	if ckptPath != "" {
		r.Checkpoint = &training.Checkpointing{Path: ckptPath, Every: spec.CheckpointEvery}
	}
	if resume != nil {
		if err := training.RestoreTrainState(resume, nil, sampler); err != nil {
			return nil, fmt.Errorf("jobs: rank %d: %w", rankID, err)
		}
		r.ResumeAt(resume.Step, resume.EpochsDone, resume.MidEpoch)
	}
	if err := r.RunEpochs(ctx, spec.Epochs); err != nil {
		return nil, err
	}
	if spec.Scheme.Restartable() { // the server counts finished workers
		return e, opt.(*dist.CentralizedWorker).Finish()
	}
	return e, nil
}

// controlClient is the rank side of the control-plane HTTP protocol.
type controlClient struct {
	base  string
	jobID string
	http  *http.Client
}

func (c *controlClient) url(suffix string) string {
	return fmt.Sprintf("%s/v1/jobs/%s%s", c.base, c.jobID, suffix)
}

func (c *controlClient) fetchJob(ctx context.Context) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(""), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("control plane returned %s", resp.Status)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return nil, err
	}
	return &job, nil
}

// post sends a JSON body, retrying briefly — the control plane owns the
// job lifecycle, so a lost done/register report would strand the rank.
func (c *controlClient) post(ctx context.Context, suffix string, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(suffix), bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		if resp.StatusCode/100 == 2 {
			return nil
		}
		lastErr = fmt.Errorf("control plane returned %s", resp.Status)
	}
	return lastErr
}

func (c *controlClient) register(ctx context.Context, rank int, addr string, pid int) error {
	return c.post(ctx, "/register", map[string]any{"rank": rank, "addr": addr, "pid": pid})
}

func (c *controlClient) heartbeat(ctx context.Context, rank, step int, loss float64) error {
	return c.post(ctx, "/heartbeat", map[string]any{"rank": rank, "step": step, "loss": loss})
}

func (c *controlClient) done(ctx context.Context, rank, step int, loss float64) error {
	return c.post(ctx, "/done", map[string]any{"rank": rank, "step": step, "loss": loss})
}

func (c *controlClient) uploadSpans(ctx context.Context, spans []trace.SpanData) error {
	return c.post(ctx, "/spans", map[string]any{"spans": spans})
}

// awaitPeers polls the control plane until every rank this one must dial
// has registered a transport address.
func (c *controlClient) awaitPeers(ctx context.Context, rank int, dialRanks []int) ([]string, error) {
	need := dialRanks
	if need == nil {
		need = make([]int, rank)
		for i := range need {
			need[i] = i
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/peers"), nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.http.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			var body struct {
				Addrs []string `json:"addrs"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if decodeErr == nil {
				ready := true
				for _, r := range need {
					if r < len(body.Addrs) && body.Addrs[r] == "" {
						ready = false
						break
					}
				}
				if ready {
					return body.Addrs, nil
				}
			}
		} else if resp != nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("jobs: rank %d: peers not registered within 60s", rank)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
