// Command d500serve runs the Deep500-Go online-inference server: one or
// more models — trained D5NX checkpoints or freshly initialized zoo
// architectures — behind a multi-tenant model registry, each with its own
// dynamic micro-batching queue and session-replica pool (optionally
// autoscaled), over the HTTP JSON front end.
//
// Usage:
//
//	d500serve -zoo mlp                              # serve a zoo model
//	d500serve -model trained.d5nx -addr :8500       # serve a checkpoint
//	d500serve -models hi=mlp:2,lo=lenet:1           # two tenants, priorities
//	d500serve -zoo lenet -replicas 1 -max-replicas 4    # queue-driven autoscaling
//	d500serve -zoo lenet -replicas 4 -batch 16 -linger 2ms
//	d500serve -zoo mlp -log                         # JSON request log on stdout
//
// Routes: POST /v1/infer (sole model, or ?model=name), POST
// /v1/models/{name}/infer, PUT /v1/models/{name} (hot load/swap from the
// zoo or a checkpoint), DELETE /v1/models/{name} (unload), GET /v1/models
// (tenant listing with input signatures), GET /metrics (Prometheus text
// exposition — see docs/operations.md), GET /stats (serving counters as
// JSON), GET /healthz. Under -trace, GET /debug/traces serves the
// flight-recorded request traces as JSON and GET /debug/traces/perfetto
// as Chrome trace-event JSON; -pprof mounts net/http/pprof under
// /debug/pprof/. Backpressure surfaces as HTTP 429; a crashed
// replica fails its in-flight requests with 500 and is respawned unless
// -respawn=false. SIGINT or SIGTERM triggers graceful shutdown (drain the
// queues, stop the replicas), bounded by -grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deep500/d500"
	"deep500/internal/graph"
	"deep500/internal/models"
)

// zooModel builds a headless (inference-only) zoo architecture at its
// classic input geometry.
func zooModel(name string) (*graph.Model, error) {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 42} // MNIST
	switch strings.ToLower(name) {
	case "resnet8", "resnet18", "wrn16":
		cfg.Channels, cfg.Height, cfg.Width = 3, 32, 32 // CIFAR
	}
	return models.ByName(name, cfg)
}

// tenantSpec is one -models entry: a serving name, a zoo architecture,
// and an admission priority.
type tenantSpec struct {
	name     string
	zoo      string
	priority int
}

// parseTenants parses the -models list: comma-separated name=zoo or
// name=zoo:priority entries.
func parseTenants(s string) ([]tenantSpec, error) {
	var out []tenantSpec
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -models entry %q (want name=zoo or name=zoo:priority)", entry)
		}
		spec := tenantSpec{name: name}
		zoo, prio, hasPrio := strings.Cut(rest, ":")
		spec.zoo = zoo
		if hasPrio {
			p, err := strconv.Atoi(prio)
			if err != nil {
				return nil, fmt.Errorf("bad priority in -models entry %q: %v", entry, err)
			}
			spec.priority = p
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, errors.New("-models is empty")
	}
	return out, nil
}

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8500", "listen address")
	modelPath := flag.String("model", "", "serve this D5NX checkpoint (overrides -zoo)")
	zoo := flag.String("zoo", "mlp", "serve a freshly initialized zoo model: mlp, lenet, resnet8, resnet18, wrn16")
	tenants := flag.String("models", "", "serve several tenants: name=zoo:priority, comma-separated (overrides -zoo and -model)")
	batch := flag.Int("batch", 8, "micro-batch flush size (1 disables batching)")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait for a batch to fill")
	replicas := flag.Int("replicas", 2, "session replicas serving concurrently (the autoscaler's floor)")
	maxReplicas := flag.Int("max-replicas", 0, "autoscale each tenant's pool up to this many replicas (0 = fixed pool)")
	scaleEvery := flag.Duration("scale-interval", 0, "autoscaler sampling interval (0 = default 25ms)")
	scaleUp := flag.Float64("scale-up", 0, "queue-occupancy fraction that triggers a scale-up (0 = default 0.5)")
	scaleIdle := flag.Duration("scale-idle", 0, "idle time before a scaled-up replica retires (0 = default 500ms)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = replicas*batch*4)")
	respawn := flag.Bool("respawn", true, "rebuild crashed replicas from the shared weights")
	logReq := flag.Bool("log", false, "write one JSON line per HTTP request to stdout")
	traceOn := flag.Bool("trace", false, "record request traces into the in-memory flight recorder (GET /debug/traces)")
	traceSlow := flag.Duration("trace-slow", 0, "tail-sample any request at least this slow (implies -trace; 0 = default 250ms)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiles under /debug/pprof/")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown budget")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "d500serve: unexpected argument %q (boolean flags like -respawn and -log take no value)\n", flag.Arg(0))
		return 2
	}

	metrics := d500.NewMetrics()
	sessOpts := []d500.Option{d500.WithHook(metrics.Hook())}
	// One tracer shared by every tenant's replicas: all request traces land
	// in one flight recorder, served at /debug/traces. The d500_trace_*
	// series are always registered so dashboards keep a stable shape.
	var tracer *d500.Tracer
	if *traceOn || *traceSlow > 0 {
		tc := d500.DefaultTraceConfig()
		tc.Process = "serve"
		if *traceSlow > 0 {
			tc.SlowThreshold = *traceSlow
		}
		var err error
		if tracer, err = d500.NewTracer(tc); err != nil {
			fmt.Fprintln(os.Stderr, "d500serve:", err)
			return 2
		}
		sessOpts = append(sessOpts, d500.WithTracer(tracer))
	}
	metrics.ObserveTracer(tracer)
	srvOpts := []d500.ServerOption{
		d500.WithMaxBatch(*batch),
		d500.WithMaxLinger(*linger),
		d500.WithReplicas(*replicas),
		d500.WithSession(sessOpts...),
	}
	if *maxReplicas > 0 {
		srvOpts = append(srvOpts, d500.WithMaxReplicas(*maxReplicas))
	}
	if *scaleEvery > 0 {
		srvOpts = append(srvOpts, d500.WithScaleInterval(*scaleEvery))
	}
	if *scaleUp > 0 {
		srvOpts = append(srvOpts, d500.WithScaleUpOccupancy(*scaleUp))
	}
	if *scaleIdle > 0 {
		srvOpts = append(srvOpts, d500.WithScaleDownIdle(*scaleIdle))
	}
	if *queue > 0 {
		srvOpts = append(srvOpts, d500.WithQueueDepth(*queue))
	}
	if *respawn {
		srvOpts = append(srvOpts, d500.WithRespawn())
	}

	// The initial tenant set: -models pairs, else the single -model
	// checkpoint or -zoo architecture under its graph name.
	type initial struct {
		name     string
		version  string
		priority int
		model    *graph.Model
	}
	var boot []initial
	if *tenants != "" {
		specs, err := parseTenants(*tenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "d500serve:", err)
			return 2
		}
		for _, s := range specs {
			m, err := zooModel(s.zoo)
			if err != nil {
				fmt.Fprintln(os.Stderr, "d500serve:", err)
				return 2
			}
			boot = append(boot, initial{name: s.name, version: "zoo/" + strings.ToLower(s.zoo), priority: s.priority, model: m})
		}
	} else {
		var (
			m       *graph.Model
			version string
			err     error
		)
		if *modelPath != "" {
			m, err = d500.Load(*modelPath)
			version = *modelPath
		} else {
			m, err = zooModel(*zoo)
			version = "zoo/" + strings.ToLower(*zoo)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "d500serve:", err)
			return 2
		}
		boot = append(boot, initial{name: m.Name, version: version, model: m})
	}

	registry, err := d500.NewRegistry()
	if err != nil {
		fmt.Fprintln(os.Stderr, "d500serve:", err)
		return 2
	}
	for _, b := range boot {
		spec := d500.ModelSpec{Version: b.version, Priority: b.priority, Model: b.model, Options: srvOpts}
		if err := registry.Load(b.name, spec); err != nil {
			fmt.Fprintln(os.Stderr, "d500serve:", err)
			registry.Close(context.Background())
			return 2
		}
		fmt.Printf("d500serve: model %q %s (%d nodes, %d params) — batch %d, linger %v, %d replica(s)",
			b.name, b.version, len(b.model.Nodes), b.model.ParamCount(), *batch, *linger, *replicas)
		if *maxReplicas > *replicas {
			fmt.Printf(", autoscale to %d", *maxReplicas)
		}
		if b.priority != 0 {
			fmt.Printf(", priority %d", b.priority)
		}
		fmt.Println()
	}
	fmt.Printf("d500serve: %d model(s) on %s\n", len(boot), *addr)

	// Hot loading over PUT /v1/models/{name}: a zoo architecture or a
	// D5NX checkpoint, served with the same options as the boot tenants.
	loader := func(name string, req d500.LoadRequest) (d500.ModelSpec, error) {
		switch {
		case req.Zoo != "" && req.Checkpoint != "":
			return d500.ModelSpec{}, errors.New("specify zoo or checkpoint, not both")
		case req.Zoo != "":
			m, err := zooModel(req.Zoo)
			if err != nil {
				return d500.ModelSpec{}, err
			}
			version := req.Version
			if version == "" {
				version = "zoo/" + strings.ToLower(req.Zoo)
			}
			return d500.ModelSpec{Version: version, Priority: req.Priority, Model: m, Options: srvOpts}, nil
		case req.Checkpoint != "":
			m, err := d500.Load(req.Checkpoint)
			if err != nil {
				return d500.ModelSpec{}, err
			}
			version := req.Version
			if version == "" {
				version = req.Checkpoint
			}
			return d500.ModelSpec{Version: version, Priority: req.Priority, Model: m, Options: srvOpts}, nil
		default:
			return d500.ModelSpec{}, errors.New("load request needs a zoo model or a checkpoint path")
		}
	}

	// Observability: Prometheus exposition on /metrics, request accounting
	// (and the optional JSON access log) around every other route.
	metrics.ObserveRegistry(registry)
	var logw io.Writer
	if *logReq {
		logw = os.Stdout
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	if tracer != nil {
		mux.Handle("/debug/traces", tracer.Handler())
		mux.Handle("/debug/traces/", tracer.Handler())
		slow := d500.DefaultTraceConfig().SlowThreshold
		if *traceSlow > 0 {
			slow = *traceSlow
		}
		fmt.Printf("d500serve: tracing on (tail-sampling requests >= %v) — GET /debug/traces\n", slow)
	}
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Println("d500serve: pprof on — GET /debug/pprof/")
	}
	mux.Handle("/", metrics.Middleware(registry.Handler(loader), logw))

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		// ListenAndServe never returns nil; reaching here without a signal
		// means the listener failed (e.g. the port is taken).
		fmt.Fprintln(os.Stderr, "d500serve:", err)
		registry.Close(context.Background())
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, drain in-flight HTTP
	// requests, then drain the serving queues and stop the replicas.
	fmt.Println("d500serve: shutting down…")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "d500serve: http shutdown:", err)
		code = 1
	}
	if err := registry.Close(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "d500serve: server close:", err)
		code = 1
	}
	st := registry.Stats()
	fmt.Printf("d500serve: served %d request(s) in %d batch(es) (occupancy %.2f rows/batch, %d rejected, %d scale-up(s))\n",
		st.Aggregate.Requests, st.Aggregate.Batches, st.Aggregate.Occupancy, st.Aggregate.Rejected, st.Aggregate.ScaleUps)
	fmt.Println("d500serve: shutdown complete")
	return code
}
