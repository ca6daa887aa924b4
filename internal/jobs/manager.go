package jobs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"deep500/internal/obs/trace"
)

// Config parameterizes a Manager.
type Config struct {
	// Runner spawns rank processes (required).
	Runner Runner
	// HeartbeatTimeout is how long a rank may go silent before the manager
	// declares it dead and kills its process (the exit path then decides
	// restart vs fail). Default 15s.
	HeartbeatTimeout time.Duration
	// PollInterval is the monitor's heartbeat-check cadence. Default 1s.
	PollInterval time.Duration
	// Metrics receives control-plane observations (default: fresh instance).
	Metrics *Metrics
	// Tracer, when non-nil, traces every job: Submit starts a forced
	// "dist.job" root span, rewrites the spec's trace context so rank
	// processes join it, and POST /v1/jobs/{id}/spans merges the spans
	// they upload back — one tree across launcher, PS and workers.
	Tracer *trace.Tracer
}

// Manager is the lifecycle manager: it owns the job table, spawns rank
// processes through the Runner, watches their exits and heartbeats, and
// drives the state machine — including restarting dead workers of
// restartable schemes from their checkpoints.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int

	wg sync.WaitGroup
}

// NewManager builds a Manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("jobs: Config.Runner is required")
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 15 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	return &Manager{cfg: cfg, jobs: make(map[string]*Job)}, nil
}

// Metrics returns the manager's metrics surface.
func (m *Manager) Metrics() *Metrics { return m.cfg.Metrics }

// Submit validates a spec, creates the job, and deploys its rank
// processes. It returns the job snapshot once every process has been
// spawned (registration and training proceed asynchronously).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var span *trace.Span
	if tr := m.cfg.Tracer; tr.Enabled() {
		attrs := []trace.Attr{
			trace.String("scheme", string(spec.Scheme)),
			trace.Int("workers", spec.Workers),
			trace.String("name", spec.Name),
		}
		if rm, ok := trace.Parse(spec.Trace); ok {
			span = tr.StartRemote(rm, "dist.job", attrs...)
		} else {
			span = tr.StartRoot("dist.job", attrs...)
		}
		// A job trace is always worth keeping, however fast the job ran.
		span.Force()
		// Rank processes fetch the spec back; this is how they join the
		// job's trace.
		spec.Trace = trace.Format(span.TraceID(), span.SpanID())
	}
	m.mu.Lock()
	id, err := spec.claimJobID(func() string {
		m.nextID++
		return fmt.Sprintf("job-%d", m.nextID)
	})
	if err != nil {
		m.mu.Unlock()
		span.SetError(err)
		span.End()
		return nil, err
	}
	j := &Job{
		ID:      id,
		Spec:    spec,
		State:   StatePending,
		Created: time.Now(),
		exits:   make(chan exitEvent, spec.WorldSize()*4),
		stop:    make(chan struct{}),
		span:    span,
	}
	for rank := 0; rank < spec.WorldSize(); rank++ {
		j.Workers = append(j.Workers, &Worker{
			Rank: rank, Role: spec.Role(rank), Phase: WorkerStarting, LastHeartbeat: time.Now(),
		})
	}
	m.jobs[j.ID] = j
	span.AddAttrs(trace.String("job", j.ID))
	m.cfg.Metrics.JobsSubmitted.Inc()
	m.mu.Unlock()

	if err := m.deploy(j); err != nil {
		m.mu.Lock()
		m.failLocked(j, fmt.Sprintf("deploy: %v", err))
		snap := j.snapshot()
		m.mu.Unlock()
		return snap, err
	}
	m.wg.Add(1)
	go m.monitor(j)

	m.mu.Lock()
	snap := j.snapshot()
	m.mu.Unlock()
	return snap, nil
}

// deploy spawns every rank process and moves the job to running.
func (m *Manager) deploy(j *Job) error {
	m.mu.Lock()
	j.State = StateDeploying
	m.mu.Unlock()
	for rank := range j.Workers {
		if err := m.spawnRank(j, rank); err != nil {
			return err
		}
	}
	m.mu.Lock()
	if !j.State.Terminal() {
		j.State = StateRunning
		j.Started = time.Now()
		m.cfg.Metrics.JobsRunning.Inc()
	}
	m.mu.Unlock()
	return nil
}

// spawnRank starts (or restarts) one rank process and watches its exit.
func (m *Manager) spawnRank(j *Job, rank int) error {
	proc, err := m.cfg.Runner.Start(j, rank)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if j.State.Terminal() {
		// The job ended while this (re)start was in flight — nothing would
		// ever kill the fresh process, so reap it here instead of tracking
		// it. Deciding under the lock also keeps wg.Add ordered before
		// Shutdown's wg.Wait.
		m.mu.Unlock()
		proc.Kill()
		go proc.Wait()
		return nil
	}
	w := j.Workers[rank]
	w.proc = proc
	w.PID = proc.PID()
	w.incarnation++
	w.done = false
	w.Phase = WorkerRunning
	w.LastHeartbeat = time.Now()
	incarnation := w.incarnation
	m.cfg.Metrics.WorkersRunning.Inc()
	m.wg.Add(1)
	m.mu.Unlock()

	go func() {
		defer m.wg.Done()
		err := proc.Wait()
		m.cfg.Metrics.WorkersRunning.Dec()
		select {
		case j.exits <- exitEvent{rank: rank, incarnation: incarnation, err: err}:
		case <-j.stop:
		}
	}()
	return nil
}

// monitor is the per-job control loop: it reacts to process exits and
// enforces heartbeat deadlines until the job reaches a terminal state.
func (m *Manager) monitor(j *Job) {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.stop:
			return
		case ev := <-j.exits:
			m.handleExit(j, ev)
		case <-ticker.C:
			m.checkHeartbeats(j)
		}
	}
}

// handleExit drives the state machine on a rank process termination.
func (m *Manager) handleExit(j *Job, ev exitEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.State.Terminal() {
		return
	}
	w := j.Workers[ev.rank]
	if ev.incarnation != w.incarnation {
		return // stale notice from an already-replaced process
	}
	w.proc = nil
	if w.done && ev.err == nil {
		w.Phase = WorkerDone
		m.checkSucceededLocked(j)
		return
	}
	// Crash (or clean exit without reporting done — equally a failure).
	w.Phase = WorkerCrashed
	if ev.err != nil {
		w.Error = ev.err.Error()
	} else {
		w.Error = "exited without completing"
	}
	restartable := j.Spec.Scheme.Restartable() && w.Role == "worker"
	if restartable && w.Restarts < j.Spec.MaxRestarts {
		w.Restarts++
		w.Phase = WorkerRestarted
		m.cfg.Metrics.WorkerRestarts.Inc()
		rank := ev.rank
		// Spawn outside the lock; a spawn failure fails the job.
		go func() {
			if err := m.spawnRank(j, rank); err != nil {
				m.mu.Lock()
				m.failLocked(j, fmt.Sprintf("restarting rank %d: %v", rank, err))
				m.mu.Unlock()
			}
		}()
		return
	}
	m.failLocked(j, fmt.Sprintf("rank %d (%s) died: %s (restarts exhausted or scheme %s not restartable)",
		ev.rank, w.Role, w.Error, j.Spec.Scheme))
}

// checkHeartbeats kills ranks that went silent; their exit events then
// route through the normal crash path.
func (m *Manager) checkHeartbeats(j *Job) {
	m.mu.Lock()
	var stale []Proc
	if j.State == StateRunning {
		deadline := time.Now().Add(-m.cfg.HeartbeatTimeout)
		for _, w := range j.Workers {
			if w.Phase == WorkerRunning && w.proc != nil && w.LastHeartbeat.Before(deadline) {
				stale = append(stale, w.proc)
				m.cfg.Metrics.HeartbeatTimeouts.Inc()
			}
		}
	}
	m.mu.Unlock()
	for _, p := range stale {
		p.Kill()
	}
}

// checkSucceededLocked promotes the job when every rank completed.
func (m *Manager) checkSucceededLocked(j *Job) {
	for _, w := range j.Workers {
		if w.Phase != WorkerDone {
			return
		}
	}
	j.State = StateSucceeded
	j.Finished = time.Now()
	j.markStopped()
	m.cfg.Metrics.JobsRunning.Dec()
	m.cfg.Metrics.JobsSucceeded.Inc()
}

// failLocked moves the job to failed and kills every live process.
func (m *Manager) failLocked(j *Job, reason string) {
	if j.State.Terminal() {
		return
	}
	wasRunning := j.State == StateRunning
	j.State = StateFailed
	j.Error = reason
	j.Finished = time.Now()
	j.markStopped()
	if wasRunning {
		m.cfg.Metrics.JobsRunning.Dec()
	}
	m.cfg.Metrics.JobsFailed.Inc()
	m.killAllLocked(j)
}

// killAllLocked terminates every live rank process of j and settles their
// phases (a rank killed because its job ended is not "running" anymore).
func (m *Manager) killAllLocked(j *Job) {
	for _, w := range j.Workers {
		if w.proc != nil {
			w.proc.Kill()
			w.proc = nil
		}
		if w.Phase == WorkerStarting || w.Phase == WorkerRunning || w.Phase == WorkerRestarted {
			w.Phase = WorkerCrashed
			if w.Error == "" {
				w.Error = "terminated with job"
			}
		}
	}
}

// killRank terminates one rank's process; the exit routes through the
// normal crash path (restart for restartable schemes, job failure
// otherwise). Tests and chaos drills use it to exercise recovery.
func (m *Manager) killRank(id string, rank int) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("jobs: no job %q", id)
	}
	if rank < 0 || rank >= len(j.Workers) {
		m.mu.Unlock()
		return fmt.Errorf("jobs: job %s has no rank %d", id, rank)
	}
	proc := j.Workers[rank].proc
	m.mu.Unlock()
	if proc == nil {
		return fmt.Errorf("jobs: job %s rank %d has no live process", id, rank)
	}
	return proc.Kill()
}

// Cancel terminates a job.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	if !j.State.Terminal() {
		wasRunning := j.State == StateRunning
		j.State = StateCancelled
		j.Finished = time.Now()
		j.markStopped()
		if wasRunning {
			m.cfg.Metrics.JobsRunning.Dec()
		}
		m.killAllLocked(j)
	}
	return j.snapshot(), nil
}

// Get returns a job snapshot.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	return j.snapshot(), nil
}

// List returns snapshots of every job, oldest first.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.Before(out[b].Created) })
	return out
}

// Register records a rank process's transport listen address; the worker
// HTTP surface calls it, and peers poll PeerAddrs until the mesh is
// dialable.
func (m *Manager) Register(id string, rank int, addr string, pid int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	if rank < 0 || rank >= len(j.Workers) {
		return fmt.Errorf("jobs: job %s has no rank %d", id, rank)
	}
	w := j.Workers[rank]
	w.Addr = addr
	if pid != 0 {
		w.PID = pid
	}
	w.LastHeartbeat = time.Now()
	return nil
}

// PeerAddrs returns the per-rank transport addresses registered so far
// ("" for ranks that have not registered yet).
func (m *Manager) PeerAddrs(id string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	addrs := make([]string, len(j.Workers))
	for i, w := range j.Workers {
		addrs[i] = w.Addr
	}
	return addrs, nil
}

// Heartbeat records a rank's liveness report.
func (m *Manager) Heartbeat(id string, rank, step int, loss float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	if rank < 0 || rank >= len(j.Workers) {
		return fmt.Errorf("jobs: job %s has no rank %d", id, rank)
	}
	w := j.Workers[rank]
	w.LastHeartbeat = time.Now()
	// A heartbeat posted just before the rank finished can arrive after its
	// done report; it must not roll the final step back.
	if !w.done {
		w.Step = step
		w.Loss = loss
	}
	m.cfg.Metrics.Heartbeats.Inc()
	return nil
}

// Done records a rank's successful completion; the job succeeds once every
// rank has both reported done and exited cleanly.
func (m *Manager) Done(id string, rank, step int, loss float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	if rank < 0 || rank >= len(j.Workers) {
		return fmt.Errorf("jobs: job %s has no rank %d", id, rank)
	}
	w := j.Workers[rank]
	w.done = true
	w.LastHeartbeat = time.Now()
	if step > 0 {
		w.Step = step
	}
	if loss != 0 {
		w.Loss = loss
	}
	return nil
}

// IngestSpans merges spans a rank process uploaded into the manager's
// flight recorder, grafting the worker subtrees onto the job trace. A
// no-op (but still an existence check) when the manager is untraced.
func (m *Manager) IngestSpans(id string, spans []trace.SpanData) error {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("jobs: no job %q", id)
	}
	if m.cfg.Tracer.Enabled() {
		m.cfg.Tracer.Recorder().Ingest(spans)
	}
	return nil
}

// Shutdown cancels every live job and waits for monitors and process
// watchers to drain.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	for _, j := range m.jobs {
		if !j.State.Terminal() {
			wasRunning := j.State == StateRunning
			j.State = StateCancelled
			j.Finished = time.Now()
			j.markStopped()
			if wasRunning {
				m.cfg.Metrics.JobsRunning.Dec()
			}
			m.killAllLocked(j)
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}
