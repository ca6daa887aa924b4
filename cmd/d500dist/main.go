// Command d500dist is the distributed-training entry point, one binary for
// every role in the stack:
//
//	-role sim     (default) the job built from the flags on the in-process
//	              simulated cluster: goroutine ranks over the virtual α-β
//	              network running the rank program the worker processes
//	              run, reporting accuracy, communication volume and
//	              simulated makespan (paper Level 3).
//	-role launch  the networked control plane: starts the trainer-service
//	              HTTP API (/v1/jobs), submits one job built from the
//	              flags, launches its own binary once per rank
//	              (parameter server + workers over loopback TCP), monitors
//	              heartbeats, restarts dead workers from checkpoints, and
//	              waits for the job to finish.
//	-role ps      one rank process (internal; spawned by launch).
//	-role worker  one rank process (internal; spawned by launch).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"deep500/internal/jobs"
	"deep500/internal/mpi"
	"deep500/internal/obs/trace"
)

func main() {
	role := flag.String("role", "sim", "sim, launch, ps or worker")
	var schemes []string
	for _, s := range jobs.Schemes() {
		schemes = append(schemes, string(s))
	}
	scheme := flag.String("scheme", string(jobs.SchemeDSGD), strings.Join(schemes, ", "))
	workers := flag.Int("workers", 2, "number of workers (centralized schemes add a parameter-server rank)")
	epochs := flag.Int("epochs", 4, "epochs")
	batch := flag.Int("batch", 16, "per-worker minibatch")
	lr := flag.Float64("lr", 0.05, "learning rate")
	samples := flag.Int("samples", 1920, "synthetic training samples")
	seed := flag.Uint64("seed", 42, "seed")
	hidden := flag.Int("hidden", 32, "MLP hidden width")
	optimizer := flag.String("optimizer", "sgd", "sgd, momentum, adam, rmsprop")
	ckptDir := flag.String("checkpoint-dir", "", "exact-resume checkpoint directory (enables restart recovery)")
	ckptEvery := flag.Int("checkpoint-every", 5, "checkpoint cadence in steps")
	maxRestarts := flag.Int("max-restarts", 2, "launch: per-worker restart budget")
	addr := flag.String("addr", "127.0.0.1:6500", "launch: control-plane HTTP listen address")
	hbTimeout := flag.Duration("heartbeat-timeout", 15*time.Second, "launch: silence before a rank is declared dead")
	traceOn := flag.Bool("trace", false, "trace the run: launcher + rank spans assemble into one tree (GET /debug/traces on -addr)")
	traceSlow := flag.Duration("trace-slow", 0, "tail-sample any step at least this slow (implies -trace; 0 = default 250ms)")
	pprofOn := flag.Bool("pprof", false, "launch: mount net/http/pprof on the control-plane listener")
	// Rank-process plumbing (set by the launcher, not by hand).
	jobID := flag.String("job", "", "ps/worker: job ID")
	rank := flag.Int("rank", -1, "ps/worker: rank index")
	control := flag.String("control", "", "ps/worker: control-plane base URL")
	flag.Parse()

	spec := jobs.Spec{
		Scheme:          jobs.Scheme(strings.ToLower(*scheme)),
		Workers:         *workers,
		Epochs:          *epochs,
		Batch:           *batch,
		LR:              *lr,
		Samples:         *samples,
		Seed:            *seed,
		Hidden:          *hidden,
		Optimizer:       *optimizer,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		MaxRestarts:     *maxRestarts,
	}
	switch strings.ToLower(*role) {
	case "sim":
		simulate(spec)
	case "launch":
		runLaunch(launchConfig{
			spec:      spec,
			addr:      *addr,
			hbTimeout: *hbTimeout,
			traceOn:   *traceOn || *traceSlow > 0,
			traceSlow: *traceSlow,
			pprof:     *pprofOn,
		})
	case "ps", "worker":
		runRankProcess(*jobID, *rank, *control, *traceOn || *traceSlow > 0, *traceSlow)
	default:
		fmt.Fprintf(os.Stderr, "d500dist: unknown role %q (sim, launch, ps, worker)\n", *role)
		os.Exit(2)
	}
}

// ---- launch: the networked control plane ----

type launchConfig struct {
	spec      jobs.Spec
	addr      string
	hbTimeout time.Duration
	traceOn   bool
	traceSlow time.Duration
	pprof     bool
}

func runLaunch(cfg launchConfig) {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fatal(err)
	}
	controlURL := "http://" + ln.Addr().String()

	// The launcher's tracer roots every job's span tree; rank processes get
	// the -trace flags forwarded so they trace their side and upload the
	// spans back to POST /v1/jobs/{id}/spans — one tree across processes.
	var tr *trace.Tracer
	var extraArgs []string
	if cfg.traceOn {
		opts := trace.Options{Process: "launcher"}
		if cfg.traceSlow > 0 {
			opts.SlowThreshold = cfg.traceSlow
		}
		tr = trace.New(opts)
		extraArgs = append(extraArgs, "-trace")
		if cfg.traceSlow > 0 {
			extraArgs = append(extraArgs, "-trace-slow", cfg.traceSlow.String())
		}
	}

	mgr, err := jobs.NewManager(jobs.Config{
		Runner:           &jobs.ExecRunner{Binary: self, ControlURL: controlURL, ExtraArgs: extraArgs},
		HeartbeatTimeout: cfg.hbTimeout,
		Tracer:           tr,
	})
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	if tr != nil {
		mux.Handle("/debug/traces", tr.Recorder().Handler())
		mux.Handle("/debug/traces/", tr.Recorder().Handler())
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", jobs.Handler(mgr))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	job, err := mgr.Submit(cfg.spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("d500dist: control plane on %s, job %s (%s, %d workers, world %d)\n",
		controlURL, job.ID, job.Spec.Scheme, job.Spec.Workers, job.Spec.WorldSize())
	if rm, ok := trace.Parse(job.Spec.Trace); ok {
		fmt.Printf("d500dist: job trace %s — GET %s/debug/traces?trace=%s\n",
			trace.FormatID(rm.Trace), controlURL, trace.FormatID(rm.Trace))
	}

	// Wait for a terminal state, narrating worker restarts as they happen.
	lastRestarts := 0
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(os.Stderr, "d500dist: interrupted, cancelling job")
			mgr.Cancel(job.ID)
		case <-ticker.C:
		}
		j, err := mgr.Get(job.ID)
		if err != nil {
			fatal(err)
		}
		if r := totalRestarts(j); r > lastRestarts {
			fmt.Printf("d500dist: restarted %d worker(s) from checkpoint\n", r-lastRestarts)
			lastRestarts = r
		}
		if j.State.Terminal() {
			printOutcome(j)
			if tr != nil {
				printTraceSummary(tr, j)
			}
			mgr.Shutdown()
			srv.Close()
			if j.State != jobs.StateSucceeded {
				os.Exit(1)
			}
			return
		}
	}
}

func totalRestarts(j *jobs.Job) int {
	n := 0
	for _, w := range j.Workers {
		n += w.Restarts
	}
	return n
}

// printTraceSummary renders the job's assembled span tree per process.
// Rank processes upload their spans after reporting the terminal state,
// so the summary waits briefly for every rank's subtree to land.
func printTraceSummary(tr *trace.Tracer, j *jobs.Job) {
	rm, ok := trace.Parse(j.Spec.Trace)
	if !ok {
		return
	}
	want := 1 + j.Spec.WorldSize() // launcher + every rank
	deadline := time.Now().Add(2 * time.Second)
	var td trace.TraceData
	for {
		td, _ = tr.Recorder().Trace(rm.Trace)
		procs := map[string]bool{}
		for _, s := range td.Spans {
			procs[s.Process] = true
		}
		if len(procs) >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	perProc := map[string]int{}
	for _, s := range td.Spans {
		perProc[s.Process]++
	}
	names := make([]string, 0, len(perProc))
	for p := range perProc {
		names = append(names, p)
	}
	sort.Strings(names)
	fmt.Printf("d500dist: trace %s assembled %d span(s):", trace.FormatID(rm.Trace), len(td.Spans))
	for _, p := range names {
		fmt.Printf(" %s=%d", p, perProc[p])
	}
	fmt.Println()
}

func printOutcome(j *jobs.Job) {
	fmt.Printf("d500dist: job %s %s", j.ID, j.State)
	if j.Error != "" {
		fmt.Printf(" (%s)", j.Error)
	}
	fmt.Println()
	out, _ := json.MarshalIndent(j.Workers, "", "  ")
	fmt.Println(string(out))
}

// ---- ps / worker: one rank process ----

func runRankProcess(jobID string, rank int, control string, traceOn bool, traceSlow time.Duration) {
	if jobID == "" || rank < 0 || control == "" {
		fmt.Fprintln(os.Stderr, "d500dist: -job, -rank and -control are required for rank roles")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := jobs.RankConfig{JobID: jobID, Rank: rank, ControlURL: control}
	if traceOn {
		opts := trace.Options{Process: fmt.Sprintf("rank-%d", rank)}
		if traceSlow > 0 {
			opts.SlowThreshold = traceSlow
		}
		rc.Tracer = trace.New(opts)
	}
	if err := jobs.RunRank(ctx, rc); err != nil {
		fmt.Fprintf(os.Stderr, "d500dist: rank %d: %v\n", rank, err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "d500dist:", err)
	os.Exit(1)
}

// ---- sim: the in-process simulated cluster (paper Level 3) ----

func simulate(spec jobs.Spec) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := jobs.Simulate(ctx, spec, mpi.Aries())
	if err != nil {
		fatal(err)
	}
	spec = spec.WithDefaults()
	fmt.Printf("scheme=%s workers=%d world=%d epochs=%d batch/worker=%d hidden=%d\n",
		spec.Scheme, spec.Workers, spec.WorldSize(), spec.Epochs, spec.Batch, spec.Hidden)
	for _, w := range res.Workers {
		fmt.Printf("rank %d %-6s step %d loss %.4f\n", w.Rank, w.Role, w.Step, w.Loss)
	}
	fmt.Printf("final test accuracy:   %.4f\n", res.Accuracy)
	fmt.Printf("simulated makespan:    %v (virtual α-β clock)\n", res.Makespan)
	fmt.Printf("communication volume:  %.2f MB sent / %.2f MB received / %d messages\n",
		float64(res.Volume.Sent())/1e6, float64(res.Volume.Received())/1e6, res.Volume.Messages())
}
