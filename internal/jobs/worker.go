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
	"sync/atomic"
	"time"

	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/obs/trace"
	"deep500/internal/training"
	"deep500/internal/transport"
)

// traceStepEvery samples one distributed optimization step per this many
// for per-op tracing (plus the first step); every step's subtree on a
// long job would blow the per-trace span budget.
const traceStepEvery = 100

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
		role := "worker"
		if spec.Scheme.Centralized() && rc.Rank == 0 {
			role = "ps"
		}
		rankSpan = rc.Tracer.StartRemote(rm, "dist.rank",
			trace.Int("rank", rc.Rank), trace.String("role", role))
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
		QuantizeBits:   spec.QuantBits,
		BestEffortSend: spec.Scheme.Centralized() && rc.Rank == 0,
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
	if spec.Scheme.Centralized() && rc.Rank == 0 {
		err = runPS(runCtx, rank, spec)
	} else {
		err = runTrainLoop(runCtx, rank, spec, rc.Rank, &progress, rc.stepGate)
	}
	if err != nil {
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

// buildDataset generates the job's synthetic training set (identical on
// every rank; the distributed sampler shards it).
func buildDataset(spec Spec) *training.InMemoryDataset {
	return training.SyntheticClassification(spec.Samples, 4, []int{1, 8, 8}, 0.25, spec.Seed)
}

// buildRule resolves the spec's optimizer name.
func buildRule(spec Spec) (training.ThreeStep, error) {
	lr := float32(spec.LR)
	switch spec.Optimizer {
	case "sgd":
		return training.NewFusedSGD(lr), nil
	case "momentum":
		return training.NewFusedMomentum(lr, 0.9), nil
	case "adam":
		return training.NewFusedAdam(lr), nil
	case "rmsprop":
		return training.NewFusedRMSProp(lr, 0.9), nil
	}
	return nil, fmt.Errorf("jobs: unknown optimizer %q (sgd, momentum, adam, rmsprop)", spec.Optimizer)
}

// runPS is rank 0 of a centralized scheme: the parameter server owning the
// authoritative weights. Async jobs serve until every worker reports done
// (restart-tolerant); sync jobs serve a fixed per-worker step count.
func runPS(ctx context.Context, rank *transport.TCPRank, spec Spec) error {
	rule, err := buildRule(spec)
	if err != nil {
		return err
	}
	e := executor.MustNew(buildModel(spec))
	e.SetTraining(true)
	cfg := dist.ServerConfig{Mode: dist.PSSync, StepsPerWorker: spec.TotalSteps()}
	if spec.Scheme == SchemeASGD {
		cfg = dist.ServerConfig{Mode: dist.PSAsync, UntilDone: true}
	}
	return dist.RunPSServer(ctx, rank, rule, dist.PackParams(e.Network()), cfg)
}

// runTrainLoop is a worker rank: shard the data, train for the spec's step
// budget through the scheme's optimizer, checkpoint on cadence, resume
// from the checkpoint when one exists.
func runTrainLoop(ctx context.Context, rank *transport.TCPRank, spec Spec, rankID int, progress *rankProgress, stepGate func(ctx context.Context, rank, step int)) error {
	workerIdx := spec.WorkerIndex(rankID)
	model := buildModel(spec)
	ckptPath := ""
	if spec.Scheme.Restartable() {
		ckptPath = spec.CheckpointPath(rankID)
	}
	if ckptPath != "" {
		if err := os.MkdirAll(spec.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("jobs: rank %d checkpoint dir: %w", rankID, err)
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
			return fmt.Errorf("jobs: rank %d loading checkpoint %s: %w", rankID, ckptPath, err)
		}
	}

	e := executor.MustNew(model)
	e.SetTraining(true)
	ds := buildDataset(spec)
	sampler := dist.NewDistributedSampler(ds, spec.Batch, workerIdx, spec.Workers, spec.Seed)

	var opt training.Optimizer
	var cw *dist.CentralizedWorker
	if spec.Scheme.Centralized() {
		cw = dist.NewCentralizedWorker(e, rank)
		opt = cw
	} else {
		rule, err := buildRule(spec)
		if err != nil {
			return err
		}
		opt = dist.NewConsistentDecentralized(training.NewDriver(e, rule), rank, mpi.AllreduceRing)
	}

	step := 0
	if resume != nil {
		step = resume.Step
		st := training.SamplerState{Order: resume.SamplerOrder, Pos: resume.SamplerPos}
		if resume.HasSamplerRNG {
			rng := resume.SamplerRNG
			st.RNG = &rng
		}
		if err := sampler.RestoreState(st); err != nil {
			return fmt.Errorf("jobs: rank %d restoring sampler: %w", rankID, err)
		}
	}

	total := spec.TotalSteps()
	perEpoch := spec.StepsPerEpoch()
	var lastLoss float64
	for step < total {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := sampler.Next()
		if b == nil {
			sampler.Reset()
			continue
		}
		// First and every traceStepEvery-th step get a span with the full
		// per-op subtree; the rest run with span-free contexts.
		var stepSpan *trace.Span
		stepCtx := ctx
		if parent := trace.FromContext(ctx); parent != nil {
			if step%traceStepEvery == 0 {
				stepSpan = parent.StartChild("dist.step", trace.Int("step", step+1))
				stepCtx = trace.NewContext(ctx, stepSpan)
			} else {
				stepCtx = trace.WithoutSpan(ctx)
			}
		}
		out, err := opt.Train(stepCtx, b.Feeds())
		if err != nil {
			stepSpan.SetError(err)
			stepSpan.End()
			return err
		}
		step++
		if loss, ok := out["loss"]; ok && loss.Size() > 0 {
			lastLoss = float64(loss.Data()[0])
		}
		stepSpan.AddAttrs(trace.Float("loss", lastLoss))
		stepSpan.End()
		progress.store(step, lastLoss)
		if ckptPath != "" && (step%spec.CheckpointEvery == 0 || step == total) {
			if err := saveWorkerCheckpoint(ckptPath, model, sampler, step, perEpoch); err != nil {
				return fmt.Errorf("jobs: rank %d checkpointing: %w", rankID, err)
			}
		}
		if stepGate != nil {
			stepGate(ctx, rankID, step)
		}
	}
	if cw != nil && spec.Scheme == SchemeASGD {
		return cw.Finish()
	}
	return nil
}

// saveWorkerCheckpoint writes a worker's exact-resume state: the model
// weights as of this step (cloned — the optimizer keeps mutating the live
// tensors), the shard cursor, and the step counter. Parameter-server
// schemes keep optimizer slots on the server, so the worker state carries
// none.
func saveWorkerCheckpoint(path string, model *graph.Model, sampler *dist.DistributedSampler, step, perEpoch int) error {
	m := model.Clone()
	st := sampler.CaptureState()
	ts := &graph.TrainState{
		Step:         step,
		EpochsDone:   step / perEpoch,
		MidEpoch:     step%perEpoch != 0,
		SamplerOrder: st.Order,
		SamplerPos:   st.Pos,
	}
	if st.RNG != nil {
		ts.HasSamplerRNG = true
		ts.SamplerRNG = *st.RNG
	}
	return graph.SaveCheckpoint(&graph.Checkpoint{Model: m, Train: ts}, path)
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
