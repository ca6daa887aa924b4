package jobs

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"

	"deep500/internal/obs/trace"
)

// Proc is a running rank process as the lifecycle manager sees it.
type Proc interface {
	// Wait blocks until the process exits and returns its exit error.
	Wait() error
	// Kill terminates the process.
	Kill() error
	// PID is the OS pid (negative for in-process runners).
	PID() int
}

// Runner spawns rank processes. ExecRunner is the production
// implementation (one OS process per rank via os/exec); tests use
// LocalRunner to run ranks as goroutines under the race detector.
type Runner interface {
	Start(job *Job, rank int) (Proc, error)
}

// ExecRunner launches each rank as `<binary> -role <ps|worker> -job <id>
// -rank <r> -control <url>` — d500dist launching its own binary once per rank.
type ExecRunner struct {
	// Binary is the executable to launch (usually os.Executable()).
	Binary string
	// ControlURL is the manager's HTTP base URL the rank reports back to.
	ControlURL string
	// ExtraArgs are appended to every rank command line (d500dist forwards
	// its -trace flags through here so rank processes trace too).
	ExtraArgs []string
	// Stderr mirrors rank stderr into the manager's (default on).
	Quiet bool
}

// Start launches the rank process.
func (e *ExecRunner) Start(job *Job, rank int) (Proc, error) {
	args := []string{
		"-role", job.Spec.Role(rank),
		"-job", job.ID,
		"-rank", fmt.Sprint(rank),
		"-control", e.ControlURL,
	}
	args = append(args, e.ExtraArgs...)
	cmd := exec.Command(e.Binary, args...)
	if !e.Quiet {
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("jobs: starting rank %d: %w", rank, err)
	}
	return &execProc{cmd: cmd}, nil
}

type execProc struct {
	cmd *exec.Cmd
}

func (p *execProc) Wait() error { return p.cmd.Wait() }
func (p *execProc) Kill() error { return p.cmd.Process.Kill() }
func (p *execProc) PID() int    { return p.cmd.Process.Pid }

// LocalRunner runs every rank as a goroutine inside this process —
// the control plane's test double, exercising the identical RunRank code
// path (HTTP registration, TCP transport, checkpoint restart) under the
// race detector. Kill cancels the rank's context.
type LocalRunner struct {
	// ControlURL is the manager's HTTP base URL.
	ControlURL string
	// Heartbeat overrides the rank heartbeat interval (tests shorten it).
	Heartbeat int // milliseconds; 0 = RunRank default
	// NewTracer, when set, builds each rank's tracer — one per rank, as
	// separate processes would have, so tests exercise the real
	// record-then-upload path.
	NewTracer func(rank int) *trace.Tracer

	// stepGate is forwarded to every rank's RankConfig (tests only).
	stepGate func(ctx context.Context, rank, step int)

	pids atomic.Int64
}

// Start runs the rank in a goroutine.
func (l *LocalRunner) Start(job *Job, rank int) (Proc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &localProc{
		cancel: cancel,
		done:   make(chan error, 1),
		pid:    int(-(l.pids.Add(1))), // negative: not a real OS pid
	}
	rc := RankConfig{JobID: job.ID, Rank: rank, ControlURL: l.ControlURL, stepGate: l.stepGate}
	if l.Heartbeat > 0 {
		rc.HeartbeatMillis = l.Heartbeat
	}
	if l.NewTracer != nil {
		rc.Tracer = l.NewTracer(rank)
	}
	go func() { p.done <- RunRank(ctx, rc) }()
	return p, nil
}

type localProc struct {
	cancel context.CancelFunc
	done   chan error
	pid    int
	err    atomic.Pointer[error]
}

func (p *localProc) Wait() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	err := <-p.done
	p.err.Store(&err)
	return err
}

func (p *localProc) Kill() error {
	p.cancel()
	return nil
}

func (p *localProc) PID() int { return p.pid }
