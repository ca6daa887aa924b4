package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deep500/internal/graph"
	"deep500/internal/mpi"
	"deep500/internal/obs"
)

// startControlPlane wires the full production stack — Manager, HTTP API,
// LocalRunner — with test-friendly timing. The LocalRunner runs every rank
// through the real RunRank path (HTTP registration, TCP transport,
// checkpointing) as goroutines, so the whole lifecycle runs under -race.
func startControlPlane(t *testing.T) (*Manager, *httptest.Server) {
	t.Helper()
	return startGatedControlPlane(t, nil)
}

// holdRankAt is a step gate that parks rank once it has completed step,
// until release is closed or the rank is killed. A parked rank keeps
// heartbeating that step, so a test can wait for the manager to have seen
// it, kill the rank, and only then close release: the job cannot finish, or
// the rank run past the step, before the kill. Replacement incarnations find
// release closed and pass straight through.
func holdRankAt(rank, step int, release <-chan struct{}) func(context.Context, int, int) {
	return func(ctx context.Context, r, s int) {
		if r == rank && s == step {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
	}
}

// awaitRankStep polls until the manager has seen rank at step or beyond.
func awaitRankStep(t *testing.T, m *Manager, id string, rank, step int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			t.Fatalf("job finished (%s) with rank %d held: error %q", j.State, rank, j.Error)
		}
		if j.Workers[rank].Step >= step {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never reported step %d (at %d)", rank, step, j.Workers[rank].Step)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startGatedControlPlane is startControlPlane with a step gate installed on
// every rank the runner starts.
func startGatedControlPlane(t *testing.T, gate func(ctx context.Context, rank, step int)) (*Manager, *httptest.Server) {
	t.Helper()
	return startControlPlaneWith(t, gate, nil)
}

// startControlPlaneWith is startGatedControlPlane whose manager starts
// ranks through wrap's runner around the LocalRunner, when wrap is set.
func startControlPlaneWith(t *testing.T, gate func(ctx context.Context, rank, step int), wrap func(*LocalRunner) Runner) (*Manager, *httptest.Server) {
	t.Helper()
	runner := &LocalRunner{Heartbeat: 20, stepGate: gate}
	var r Runner = runner
	if wrap != nil {
		r = wrap(runner)
	}
	m, err := NewManager(Config{
		Runner:           r,
		HeartbeatTimeout: 10 * time.Second,
		PollInterval:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	runner.ControlURL = srv.URL
	t.Cleanup(func() {
		m.Shutdown()
		srv.Close()
	})
	return m, srv
}

// awaitState polls until the job reaches want or the deadline passes.
func awaitState(t *testing.T, m *Manager, id string, want JobState, within time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapeMetric reads one sample out of the control plane's Prometheus
// exposition.
func scrapeMetric(t *testing.T, m *Manager, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	m.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if s.Scheme != SchemeASGD || s.Workers != 2 || s.Optimizer != "sgd" {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if got := s.WorldSize(); got != 3 {
		t.Fatalf("asgd world = workers+PS: got %d want 3", got)
	}
	if got := s.WorkerIndex(1); got != 0 {
		t.Fatalf("rank 1 is worker 0 under a PS, got %d", got)
	}
	d := Spec{Scheme: SchemeDSGD}.WithDefaults()
	if got := d.WorldSize(); got != 2 {
		t.Fatalf("dsgd world = workers: got %d want 2", got)
	}
	// 512 samples / 2 workers / batch 8 × 2 epochs.
	if got := s.TotalSteps(); got != 64 {
		t.Fatalf("TotalSteps = %d, want 64", got)
	}
	if got := (Spec{CheckpointDir: "/tmp/x"}).CheckpointPath("job-3", 2); got != filepath.FromSlash("/tmp/x/job-3/rank-2.d5nx") {
		t.Fatalf("CheckpointPath = %q", got)
	}
	if got := (Spec{}).CheckpointPath("job-3", 2); got != "" {
		t.Fatalf("CheckpointPath without dir = %q, want empty", got)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []Spec{
		{Scheme: "ring"},                   // unknown scheme
		{Model: "transformer"},             // unknown model
		{Samples: 8, Workers: 4, Batch: 8}, // zero steps per epoch
		{Optimizer: "lion"},                // unknown optimizer
	}
	for i, c := range cases {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, c)
		}
	}
}

// TestMetricsCoverDistNames pins the two-way contract with obs.DistNames:
// every canonical d500_dist_* metric is registered by the control plane.
// (CoreNames are covered by the d500 package's own conformance test.)
func TestMetricsCoverDistNames(t *testing.T) {
	m := NewMetrics()
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, name := range obs.DistNames() {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from control-plane exposition", name)
		}
	}
}

// TestSchemesOnBothFabrics runs every scheme of the table twice: through
// Simulate, and as a job whose ranks join over loopback TCP, register,
// train, report done and take the job to succeeded. Both fabrics run the
// same rank program, so every worker reaches TotalSteps on both, and
// where no parameter server applies gradients in arrival order each
// worker's final loss is bitwise equal across them.
func TestSchemesOnBothFabrics(t *testing.T) {
	m, _ := startControlPlane(t)
	for _, scheme := range Schemes() {
		t.Run(string(scheme), func(t *testing.T) {
			spec := Spec{
				Scheme: scheme, Workers: 2,
				Samples: 64, Batch: 8, Epochs: 1, Hidden: 8, Seed: 42,
			}.WithDefaults()
			sim, err := Simulate(context.Background(), spec, mpi.Aries())
			if err != nil {
				t.Fatal(err)
			}
			job, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final := awaitState(t, m, job.ID, StateSucceeded, 30*time.Second)
			if len(final.Workers) != spec.WorldSize() || len(sim.Workers) != spec.WorldSize() {
				t.Fatalf("%d TCP and %d simulated ranks, want %d",
					len(final.Workers), len(sim.Workers), spec.WorldSize())
			}
			bitwise := scheme != SchemeASGD && scheme != SchemeStale
			for rank, w := range final.Workers {
				s := sim.Workers[rank]
				if w.Phase != WorkerDone || w.Role != spec.Role(rank) || s.Role != w.Role {
					t.Errorf("rank %d: TCP %s %s, simulated %s", rank, w.Role, w.Phase, s.Role)
				}
				if w.Role == "ps" {
					continue
				}
				if w.Step != spec.TotalSteps() || s.Step != spec.TotalSteps() {
					t.Errorf("rank %d: step %d on TCP, %d simulated, want %d",
						rank, w.Step, s.Step, spec.TotalSteps())
				}
				if bitwise && math.Float64bits(w.Loss) != math.Float64bits(s.Loss) {
					t.Errorf("rank %d: final loss %v on TCP, %v simulated", rank, w.Loss, s.Loss)
				}
			}
		})
	}
	if m.Metrics().JobsRunning.v.Load() != 0 {
		t.Errorf("jobs_running gauge = %d after completion", m.Metrics().JobsRunning.v.Load())
	}
}

// TestWorkerKillRestartsFromCheckpoint is the fault-tolerance acceptance
// test: kill a worker mid-run; the manager restarts it, the replacement
// resumes from its exact-resume checkpoint, and the job still succeeds.
func TestWorkerKillRestartsFromCheckpoint(t *testing.T) {
	// Rank 1 is parked after step 4 — two checkpoints in, far from done —
	// until the kill has landed.
	killed := make(chan struct{})
	m, _ := startGatedControlPlane(t, holdRankAt(1, 4, killed))
	dir := t.TempDir()
	job, err := m.Submit(Spec{
		Scheme: SchemeASGD, Workers: 2,
		Samples: 512, Batch: 8, Epochs: 4, Hidden: 8, Seed: 11,
		CheckpointDir: dir, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Spec
	total := spec.TotalSteps() // 512/2/8 × 4 = 128

	awaitRankStep(t, m, job.ID, 1, 4)
	if err := m.killRank(job.ID, 1); err != nil {
		t.Fatal(err)
	}
	close(killed)

	final := awaitState(t, m, job.ID, StateSucceeded, 60*time.Second)
	w := final.Workers[1]
	if w.Restarts < 1 {
		t.Fatalf("rank 1 restarts = %d, want ≥ 1", w.Restarts)
	}
	if w.Phase != WorkerDone {
		t.Fatalf("rank 1 phase %s, want done", w.Phase)
	}
	if _, err := os.Stat(spec.CheckpointPath(job.ID, 1)); err != nil {
		t.Fatalf("rank 1 checkpoint missing: %v", err)
	}
	// The restart resumed rather than started over: the replacement's final
	// step is the full budget, and it got there without re-running from 0
	// (the checkpoint pinned a step ≥ 2 before the kill).
	if w.Step != total {
		t.Fatalf("rank 1 final step %d, want %d", w.Step, total)
	}
}

// TestUnbuildableCheckpointFailsRank: D5NX decoding does not validate the
// graph, so a checkpoint can hold a model that does not build. The rank
// that resumes from it returns an error naming itself — it must not panic,
// which under LocalRunner would take the whole process down — and once its
// restarts are spent the job fails with that error.
func TestUnbuildableCheckpointFailsRank(t *testing.T) {
	spec := Spec{
		Scheme: SchemeASGD, Workers: 2,
		Samples: 64, Batch: 8, Epochs: 1, Hidden: 8, Seed: 7,
		CheckpointDir: t.TempDir(), MaxRestarts: 1,
	}
	model := buildModel(spec)
	model.Nodes[0].OpType = "NoSuchOp"
	// The job's checkpoint directory is created when it is submitted, so
	// the bad checkpoint goes in as rank 1 starts.
	m, _ := startControlPlaneWith(t, nil, func(local *LocalRunner) Runner {
		return plantingRunner{local, func(job *Job, rank int) {
			if rank != 1 {
				return
			}
			if err := graph.SaveCheckpoint(&graph.Checkpoint{Model: model, Train: &graph.TrainState{}}, job.Spec.CheckpointPath(job.ID, 1)); err != nil {
				t.Error(err)
			}
		}}
	})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := awaitState(t, m, job.ID, StateFailed, 60*time.Second)
	for _, want := range []string{"rank 1 building model", "NoSuchOp"} {
		if !strings.Contains(final.Error, want) {
			t.Errorf("job error %q does not contain %q", final.Error, want)
		}
	}
}

// plantingRunner calls before ahead of every rank its LocalRunner starts.
type plantingRunner struct {
	*LocalRunner
	before func(job *Job, rank int)
}

func (p plantingRunner) Start(job *Job, rank int) (Proc, error) {
	p.before(job, rank)
	return p.LocalRunner.Start(job, rank)
}

// TestJobsDoNotShareCheckpoints runs one checkpointing asgd spec over one
// directory through Simulate and then as a job under two managers, as two
// launcher processes would run it: each run is a new job and trains its
// whole budget instead of resuming from the checkpoint an earlier run
// finished with.
func TestJobsDoNotShareCheckpoints(t *testing.T) {
	spec := Spec{
		Scheme: SchemeASGD, Workers: 2,
		Samples: 64, Batch: 8, Epochs: 1, Hidden: 8, Seed: 5,
		CheckpointDir: t.TempDir(), CheckpointEvery: 1,
	}.WithDefaults()
	sim, err := Simulate(context.Background(), spec, mpi.Aries())
	if err != nil {
		t.Fatal(err)
	}
	steps := func(run string, workers []Worker) {
		for _, w := range workers[1:] { // rank 0 is the server
			if w.Step != spec.TotalSteps() {
				t.Errorf("%s rank %d: step %d, want %d", run, w.Rank, w.Step, spec.TotalSteps())
			}
		}
	}
	steps("Simulate", sim.Workers)
	for i := range 2 {
		m, _ := startControlPlane(t)
		job, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		var workers []Worker
		for _, w := range awaitState(t, m, job.ID, StateSucceeded, 30*time.Second).Workers {
			workers = append(workers, *w)
		}
		steps(fmt.Sprintf("manager %d %s", i+1, job.ID), workers)
	}
}

// TestCrashWithoutCheckpointRestartsFromZero pins the documented fallback:
// no CheckpointDir means the replacement rejoins from step 0 — the async
// server absorbs the replayed gradients and the job still succeeds.
func TestCrashWithoutCheckpointRestartsFromZero(t *testing.T) {
	killed := make(chan struct{})
	m, _ := startGatedControlPlane(t, holdRankAt(2, 2, killed)) // rank 2 waits after step 2 for the kill
	job, err := m.Submit(Spec{
		Scheme: SchemeASGD, Workers: 2,
		Samples: 1024, Batch: 8, Epochs: 4, Hidden: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitRankStep(t, m, job.ID, 2, 2)
	if err := m.killRank(job.ID, 2); err != nil {
		t.Fatal(err)
	}
	close(killed)
	final := awaitState(t, m, job.ID, StateSucceeded, 60*time.Second)
	if final.Workers[2].Restarts < 1 {
		t.Fatalf("rank 2 restarts = %d, want ≥ 1", final.Workers[2].Restarts)
	}
}

// TestDSGDWorkerDeathFailsJob pins the scheme matrix: the allreduce ring
// cannot tolerate member loss, so a killed dsgd worker fails the job
// instead of restarting.
//
// The job is far longer than the test (16 steps × 2²⁰ epochs, every step a
// loopback all-reduce), so however fast a step is, training cannot finish
// between the heartbeat that publishes the first step and the kill: the
// "running with progress" state the kill needs stays observable until the
// kill ends it, and the only way out of the job is the failure under test.
func TestDSGDWorkerDeathFailsJob(t *testing.T) {
	m, _ := startControlPlane(t)
	job, err := m.Submit(Spec{
		Scheme: SchemeDSGD, Workers: 2,
		Samples: 256, Batch: 8, Epochs: 1 << 20, Hidden: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := m.Get(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == StateFailed {
			t.Fatalf("job failed before the kill: %q", j.Error)
		}
		if j.State == StateRunning && j.Workers[0].Step >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started training")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.killRank(job.ID, 0); err != nil {
		t.Fatal(err)
	}
	final := awaitState(t, m, job.ID, StateFailed, 60*time.Second)
	if final.Workers[0].Restarts != 0 {
		t.Fatalf("dsgd rank restarted %d times; ring schemes must not restart", final.Workers[0].Restarts)
	}
	if m.Metrics().JobsRunning.v.Load() != 0 {
		t.Errorf("jobs_running gauge = %d after failure", m.Metrics().JobsRunning.v.Load())
	}
}

// blockingRunner fakes rank processes that never register or heartbeat —
// the heartbeat watchdog must kill them, and once restarts are exhausted
// the job fails.
type blockingRunner struct{}

func (blockingRunner) Start(job *Job, rank int) (Proc, error) {
	return &blockingProc{stop: make(chan struct{})}, nil
}

type blockingProc struct{ stop chan struct{} }

func (p *blockingProc) Wait() error {
	<-p.stop
	return fmt.Errorf("killed")
}

func (p *blockingProc) Kill() error {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	return nil
}

func (p *blockingProc) PID() int { return -1 }

func TestHeartbeatTimeoutKillsSilentRanks(t *testing.T) {
	m, err := NewManager(Config{
		Runner:           blockingRunner{},
		HeartbeatTimeout: 150 * time.Millisecond,
		PollInterval:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	job, err := m.Submit(Spec{
		Scheme: SchemeASGD, Workers: 1, MaxRestarts: 1,
		Samples: 16, Batch: 8, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := awaitState(t, m, job.ID, StateFailed, 30*time.Second)
	if final.Error == "" {
		t.Fatal("failed job carries no error")
	}
	if v := scrapeMetric(t, m, obs.MetricDistHeartbeatTimeoutTotal); v == 0 {
		t.Error("heartbeat timeouts not counted")
	}
	// Both ranks went stale together; whichever exit lands first (the
	// non-restartable PS fails the job outright) the state machine must
	// settle with no live processes.
	for _, w := range final.Workers {
		if w.Phase == WorkerRunning {
			t.Errorf("rank %d still marked running after failure", w.Rank)
		}
	}
}

// TestLateHeartbeatKeepsFinalStep pins the ordering rule between the two
// progress reports: a heartbeat posted just before a rank finished may reach
// the manager after its done report and must not roll the final step back.
func TestLateHeartbeatKeepsFinalStep(t *testing.T) {
	m, err := NewManager(Config{Runner: blockingRunner{}, HeartbeatTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	job, err := m.Submit(Spec{Scheme: SchemeDSGD, Workers: 2, Samples: 16, Batch: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Heartbeat(job.ID, 1, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Done(job.ID, 1, 4, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := m.Heartbeat(job.ID, 1, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	j, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if w := j.Workers[1]; w.Step != 4 || w.Loss != 0.25 {
		t.Fatalf("after done(4) and a late heartbeat(3): step %d loss %g", w.Step, w.Loss)
	}
}

// TestHTTPAPI exercises the job monitor surface end to end over a real
// job: submit via POST, observe via GET, metrics and health, cancel.
func TestHTTPAPI(t *testing.T) {
	m, srv := startControlPlane(t)

	spec, _ := json.Marshal(Spec{
		Scheme: SchemeASGD, Workers: 2,
		Samples: 64, Batch: 8, Epochs: 1, Hidden: 8, Seed: 1,
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.ID == "" {
		t.Fatal("submitted job has no ID")
	}

	awaitState(t, m, job.ID, StateSucceeded, 30*time.Second)

	get := func(path string) (int, string) {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r.StatusCode, string(b)
	}

	if code, body := get("/v1/jobs/" + job.ID); code != http.StatusOK ||
		!strings.Contains(body, `"state":"succeeded"`) {
		t.Fatalf("GET job: %d %s", code, body)
	}
	if code, body := get("/v1/jobs"); code != http.StatusOK || !strings.Contains(body, job.ID) {
		t.Fatalf("GET list: %d %s", code, body)
	}
	if code, _ := get("/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("GET missing job: %d, want 404", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, obs.MetricDistJobsSucceededTotal) {
		t.Fatalf("GET /metrics: %d", code)
	} else if !strings.Contains(body, obs.MetricDistHeartbeatsTotal) {
		t.Fatal("metrics exposition missing heartbeat counter")
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}

	// Cancel is idempotent on a terminal job (stays succeeded).
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+job.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", r.Status)
	}
	j, _ := m.Get(job.ID)
	if j.State != StateSucceeded {
		t.Fatalf("cancel after success flipped state to %s", j.State)
	}
}

// TestSubmitRejectsBadSpec pins validation at the API boundary: an
// unknown scheme, an unknown field, which would otherwise run the default
// worker count, and the field of the deleted wire quantizer, which would
// otherwise run at full precision.
func TestSubmitRejectsBadSpec(t *testing.T) {
	m, srv := startControlPlane(t)
	for _, body := range []string{`{"scheme":"ring"}`, `{"scheme":"dsgd","worker":4}`, `{"scheme":"dsgd","quant_bits":8}`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", body, resp.Status)
		}
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("%d job(s) submitted from bad specs", len(jobs))
	}
}
