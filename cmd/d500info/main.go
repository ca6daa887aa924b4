// Command d500info prints the Deep500-Go surveys and registries: the
// paper's Table I (framework features), Table II (benchmark features),
// Fig. 2 (nodes-over-time survey), the registered operator set, the model
// zoo, the emulated framework backends, the benchmark experiment registry
// (the ids d500bench -experiment accepts), the serving defaults of
// d500serve, and the observability defaults (tracing flight recorder,
// pprof) shared by d500serve, d500train and d500dist.
package main

import (
	"flag"
	"fmt"
	"os"

	"deep500/d500"
	"deep500/internal/frameworks"
	"deep500/internal/graph"
	"deep500/internal/jobs"
	"deep500/internal/models"
	"deep500/internal/ops"
	"deep500/internal/transport"
)

// printExperiments lists the registered benchmark experiment ids — the
// same registry d500bench prints on an unknown -experiment (exit 2).
func printExperiments() error {
	sess, err := d500.New()
	if err != nil {
		return err
	}
	fmt.Println("\nBenchmark experiments (d500bench -experiment ids):")
	for _, id := range sess.Experiments() {
		fmt.Printf("  %s\n", id)
	}
	return nil
}

// printServe renders the d500serve / d500.NewServer option surface with
// its resolved defaults.
func printServe() {
	d := d500.DefaultServerConfig()
	fmt.Println("\nServing defaults (d500serve / d500.NewServer):")
	fmt.Printf("  %-22s %d rows (flag -batch, option WithMaxBatch; 1 disables batching)\n", "max batch", d.MaxBatch)
	fmt.Printf("  %-22s %v (flag -linger, option WithMaxLinger)\n", "max linger", d.MaxLinger)
	fmt.Printf("  %-22s %d (flag -replicas, option WithReplicas)\n", "session replicas", d.Replicas)
	fmt.Printf("  %-22s %d requests (flag -queue, option WithQueueDepth; default replicas×batch×4)\n", "admission queue", d.QueueDepth)
	fmt.Printf("  %-22s %d (flag -max-replicas, option WithMaxReplicas; equal to replicas = fixed pool)\n", "max replicas", d.MaxReplicas)
	fmt.Printf("  %-22s %v (flag -scale-interval, option WithScaleInterval)\n", "scale interval", d.ScaleInterval)
	fmt.Printf("  %-22s %.2f queue occupancy (flag -scale-up, option WithScaleUpOccupancy)\n", "scale-up threshold", d.ScaleUpOccupancy)
	fmt.Printf("  %-22s %v idle (flag -scale-idle, option WithScaleDownIdle)\n", "scale-down after", d.ScaleDownIdle)
	fmt.Printf("  %-22s %v (registry constant; bounds swap/unload drains)\n", "drain grace", d.DrainGrace)
	fmt.Printf("  %-22s %.2f higher-priority occupancy (registry constant)\n", "shed threshold", d.ShedOccupancy)
	fmt.Printf("  %-22s %d workers (shared kernels pool)\n", "worker budget", d.PoolWorkers)
	fmt.Printf("  %-22s %v (WithSession(WithFramework(...)))\n", "replica frameworks", d.Frameworks)
}

// printDist renders the distributed-training surface: the TCP transport's
// resolved defaults, the job-spec defaults of d500dist and the scheme table.
func printDist() {
	o := transport.DefaultOptions()
	fmt.Println("\nTransport defaults (internal/transport, d500dist rank fabric):")
	fmt.Printf("  %-22s %v (one dial attempt)\n", "dial timeout", o.DialTimeout)
	fmt.Printf("  %-22s %d attempts, backoff %v doubling to 1s\n", "dial retries", o.DialRetries, o.DialBackoff)
	fmt.Printf("  %-22s %v (per-frame write / handshake read)\n", "io timeout", o.IOTimeout)
	fmt.Printf("  %-22s %v (blocking receive bound)\n", "recv timeout", o.RecvTimeout)

	s := jobs.Spec{}.WithDefaults()
	fmt.Println("\nJob-spec defaults (d500dist -role sim|launch / POST /v1/jobs):")
	fmt.Printf("  %-22s %s\n", "scheme", s.Scheme)
	for _, sc := range jobs.Schemes() {
		kind := "decentralized; a worker loss fails the job"
		if sc.Restartable() {
			kind = "parameter server; workers restart from checkpoints"
		} else if sc.Centralized() {
			kind = "parameter server; a worker loss fails the job"
		}
		fmt.Printf("  %-22s %s\n", "  "+string(sc), kind)
	}
	fmt.Printf("  %-22s %d (+1 parameter-server rank for centralized schemes)\n", "workers", s.Workers)
	fmt.Printf("  %-22s %s lr=%g\n", "optimizer", s.Optimizer, s.LR)
	fmt.Printf("  %-22s %s hidden=%d\n", "model", s.Model, s.Hidden)
	fmt.Printf("  %-22s %d samples, batch %d, %d epochs\n", "data", s.Samples, s.Batch, s.Epochs)
	fmt.Printf("  %-22s every %d steps (flag -checkpoint-dir enables)\n", "checkpoints", s.CheckpointEvery)
	fmt.Printf("  %-22s %d per worker\n", "max restarts", s.MaxRestarts)
}

// printObs renders the observability defaults shared across the binaries:
// the tracing flight recorder behind -trace/-trace-slow (d500serve,
// d500train, d500dist) and the -pprof debug surface.
func printObs() {
	tc := d500.DefaultTraceConfig()
	fmt.Println("\nTracing defaults (flags -trace / -trace-slow on d500serve, d500train, d500dist):")
	fmt.Printf("  %-22s %v (flag -trace-slow; slower roots are always retained)\n", "slow threshold", tc.SlowThreshold)
	fmt.Printf("  %-22s 1 in %d root traces retained regardless of latency\n", "head sampling", tc.SampleEvery)
	fmt.Printf("  %-22s %d traces, oldest evicted first\n", "flight recorder", tc.Capacity)
	fmt.Printf("  %-22s %d spans per trace, overflow dropped and counted\n", "span cap", tc.MaxSpansPerTrace)
	fmt.Printf("  %-22s GET /debug/traces (JSON), /debug/traces/perfetto (Perfetto/Chrome)\n", "endpoints")
	fmt.Printf("  %-22s d500_trace_spans_total, d500_trace_spans_dropped_total, d500_trace_traces_sampled_total\n", "metrics")
	fmt.Println("\npprof (flag -pprof on d500serve and d500dist -role launch):")
	fmt.Printf("  %-22s off by default; mounts net/http/pprof at GET /debug/pprof/\n", "profiles")
}

func main() {
	table := flag.Int("table", 0, "print survey table 1 or 2")
	fig := flag.Int("fig", 0, "print survey figure 2")
	showOps := flag.Bool("ops", false, "list registered operators")
	showModels := flag.Bool("models", false, "list the model zoo")
	showBackends := flag.Bool("backends", false, "list emulated framework backends")
	showExperiments := flag.Bool("experiments", false, "list registered benchmark experiments")
	showServe := flag.Bool("serve", false, "show d500serve serving options and defaults")
	showDist := flag.Bool("dist", false, "show distributed transport and job-spec defaults")
	showObs := flag.Bool("obs", false, "show observability defaults (tracing flight recorder, pprof)")
	flag.Parse()

	any := false
	if *table == 1 {
		d500.RenderTableI(os.Stdout)
		any = true
	}
	if *table == 2 {
		d500.RenderTableII(os.Stdout)
		any = true
	}
	if *fig == 2 {
		d500.RenderFig2(os.Stdout)
		any = true
	}
	if *showOps {
		fmt.Println("\nRegistered operators (Level 0 builders):")
		for _, name := range ops.RegisteredOps() {
			schema, _ := graph.LookupSchema(name)
			domain := schema.Domain
			if domain == "" {
				domain = "standard"
			}
			fmt.Printf("  %-22s domain=%s inputs=[%d,%d]\n", name, domain, schema.MinInputs, schema.MaxInputs)
		}
		any = true
	}
	if *showModels {
		fmt.Println("\nModel zoo (D5NX builders):")
		cfg := models.Config{Classes: 10, Channels: 3, Height: 32, Width: 32, Seed: 1}
		for _, m := range []*graph.Model{
			models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 1}),
			models.AlexNet(models.Config{Classes: 1000, Channels: 3, Height: 224, Width: 224, Seed: 1}),
			models.ResNet(18, cfg),
			models.ResNet(50, cfg),
			models.WideResNet(16, 4, cfg),
			models.MLP(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 1}, 512, 256),
		} {
			fmt.Printf("  %-12s nodes=%-4d params=%d\n", m.Name, len(m.Nodes), m.ParamCount())
		}
		any = true
	}
	if *showBackends {
		fmt.Println("\nEmulated framework backends:")
		for _, p := range frameworks.All() {
			fmt.Printf("  %-10s %-22s dispatch=%v fused-opt=%v eager=%v\n",
				p.Name, p.DisplayName, p.OpOverhead, p.FusedOptimizers, p.Eager)
		}
		any = true
	}
	if *showExperiments {
		if err := printExperiments(); err != nil {
			fmt.Fprintln(os.Stderr, "d500info:", err)
			os.Exit(1)
		}
		any = true
	}
	if *showServe {
		printServe()
		any = true
	}
	if *showDist {
		printDist()
		any = true
	}
	if *showObs {
		printObs()
		any = true
	}
	if !any {
		d500.RenderTableI(os.Stdout)
		d500.RenderTableII(os.Stdout)
		d500.RenderFig2(os.Stdout)
		if err := printExperiments(); err != nil {
			fmt.Fprintln(os.Stderr, "d500info:", err)
			os.Exit(1)
		}
		printServe()
		printDist()
		printObs()
	}
}
