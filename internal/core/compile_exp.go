package core

import (
	"context"
	"fmt"
	"time"

	"deep500/internal/bench"
	"deep500/internal/compile"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// This file implements the "compile" suite experiment: the graph-level
// reproduction of the paper's Use Case 1 (§III-A) — the performance gap
// between a framework dispatching many small ops and one executing a fused
// kernel. It runs each workload's forward pass through an unoptimized and a
// compile-pipeline-optimized executor and records (a) the deterministic
// node-dispatch count per pass, which the CI regression gate always
// enforces, and (b) the wall-clock forward latency, which self-demotes
// across differing CPUs like every "s" metric.

// CompileBenchRow is one (workload, variant) measurement.
type CompileBenchRow struct {
	Workload   string // "mlp" (Dense→Bias→Act) or "lenet" (Conv→Bias→ReLU)
	Variant    string // "baseline", "optimized" or "planned"
	Dispatches int    // operator dispatches in one forward pass (deterministic)
	Fused      int    // chains fused by the pipeline (0 for baseline)
	Seconds    []float64
	Warmup     int
	// SlabBytes / NoReuseBytes describe the planned variant's static memory
	// plan (0 for the others); both are deterministic for a fixed model and
	// batch size.
	SlabBytes, NoReuseBytes int
}

// compileWorkload is one model the experiment exercises.
type compileWorkload struct {
	name  string
	model *graph.Model
	batch int
}

func compileWorkloads(o Options) []compileWorkload {
	batch := 32
	if o.Quick {
		batch = 8
	}
	mlpCfg := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: o.seed()}
	lenetCfg := mlpCfg
	return []compileWorkload{
		{"mlp", models.MLP(mlpCfg, 256, 128), batch},
		{"lenet", models.LeNet(lenetCfg), batch},
	}
}

// RunCompileBench measures forward dispatch counts and latency with the
// compile pipeline off and on, for an MLP (fused Dense→Bias→Activation
// chains) and LeNet (fused Conv→Bias→ReLU chains). It also cross-checks
// that both variants produce tolerance-equal outputs, failing the
// experiment on divergence. Baseline and optimized samples are interleaved
// round by round — the pairwise methodology of the Fig. 6 experiment — so
// allocator state and CPU-frequency drift hit both variants equally
// instead of biasing whichever was measured last.
func RunCompileBench(ctx context.Context, o Options) ([]CompileBenchRow, error) {
	samples, warmup, iters := 12, 2, 8
	if o.Quick {
		samples, warmup, iters = 6, 1, 4
	}
	var rows []CompileBenchRow
	for _, w := range compileWorkloads(o) {
		rng := tensor.NewRNG(o.seed())
		labels := tensor.New(w.batch)
		for i := 0; i < w.batch; i++ {
			labels.Data()[i] = float32(i % 10)
		}
		feeds := map[string]*tensor.Tensor{
			"x":      tensor.RandNormal(rng, 0, 1, w.batch, w.model.Inputs[0].Shape[1], w.model.Inputs[0].Shape[2], w.model.Inputs[0].Shape[3]),
			"labels": labels,
		}

		// "planned" stacks the static memory plan on the optimized graph, so
		// the experiment isolates what liveness-planned allocation adds on
		// top of fusion.
		variants := []string{"baseline", "optimized", "planned"}
		execs := make(map[string]*executor.Executor, len(variants))
		wrows := make(map[string]*CompileBenchRow, len(variants))
		var ref map[string]*tensor.Tensor
		// The baseline variant must stay unoptimized even when the session
		// itself runs with -opt (Options.Optimize), or the fused-vs-unfused
		// comparison would measure two identical executors.
		oBase := o
		oBase.Optimize = false
		for _, variant := range variants {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			opts := oBase.execOpts()
			fusedChains := 0
			if variant != "baseline" {
				opts = append(opts, executor.WithOptimize(compile.Defaults()))
			}
			if variant == "planned" {
				opts = append(opts, executor.WithMemPlan(true))
			}
			e, err := executor.New(w.model, opts...)
			if err != nil {
				return rows, err
			}
			if rep := e.CompileReport(); rep != nil {
				fusedChains = rep.Fused
			}

			// Deterministic dispatch count: one instrumented pass (which
			// doubles as warmup for the timing rounds below).
			dispatches := 0
			e.Events = &executor.Events{BeforeOp: func(n *graph.Node) { dispatches++ }}
			out, err := e.Inference(ctx, feeds)
			if err != nil {
				return rows, err
			}
			e.Events = nil
			if variant == "baseline" {
				ref = out
			} else {
				for name, r := range ref {
					g, ok := out[name]
					if !ok {
						return rows, fmt.Errorf("compile: optimized %s lost output %q", w.name, name)
					}
					if d := maxAbsDiffT(r, g); d > 1e-4 {
						return rows, fmt.Errorf("compile: %s output %q diverges after optimization: max |Δ| = %g", w.name, name, d)
					}
				}
			}
			execs[variant] = e
			wrows[variant] = &CompileBenchRow{
				Workload: w.name, Variant: variant,
				Dispatches: dispatches, Fused: fusedChains, Warmup: warmup,
			}
		}

		// Interleaved timing rounds.
		for r := 0; r < warmup+samples; r++ {
			for _, variant := range variants {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				e := execs[variant]
				start := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := e.Inference(ctx, feeds); err != nil {
						return rows, err
					}
				}
				if r >= warmup {
					wrows[variant].Seconds = append(wrows[variant].Seconds,
						time.Since(start).Seconds()/float64(iters))
				}
			}
		}
		for _, variant := range variants {
			if variant == "planned" {
				if plan := execs[variant].MemPlan(); plan != nil {
					wrows[variant].SlabBytes = int(plan.SlabBytes())
					wrows[variant].NoReuseBytes = int(plan.NoReuseBytes())
				}
			}
			rows = append(rows, *wrows[variant])
		}
	}
	return rows, nil
}

// maxAbsDiffT is the ℓ∞ distance between two same-shaped tensors.
func maxAbsDiffT(a, b *tensor.Tensor) float64 {
	var m float64
	for i, v := range a.Data() {
		d := float64(v - b.Data()[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// RenderCompileBench renders the compile-pipeline rows.
func RenderCompileBench(rows []CompileBenchRow) *Table {
	t := &Table{Title: "Graph compilation: fused vs unfused forward pass",
		Headers: []string{"Workload", "Variant", "Dispatches/pass", "Fused chains", "Median fwd", "Plan slab"}}
	for _, r := range rows {
		med := metrics.Summarize(r.Seconds).Median
		slab := "—"
		if r.SlabBytes > 0 {
			slab = fmt.Sprintf("%d KiB (%.2fx reuse)", r.SlabBytes/1024,
				float64(r.NoReuseBytes)/float64(r.SlabBytes))
		}
		t.AddRow(r.Workload, r.Variant, itoa(int64(r.Dispatches)), itoa(int64(r.Fused)), fsec(med), slab)
	}
	t.AddNote("mlp: Dense→Bias→Activation fusion (FusedGemmAct); lenet: adds Conv→Bias→ReLU (FusedConvRelu)")
	t.AddNote("planned: optimized graph + liveness-planned activation slab (zero-alloc steady-state forward)")
	t.AddNote("dispatch counts are deterministic and always gate; wall-clock gates only on comparable CPUs")
	return t
}

func runCompileExp(c *bench.Context, o Options) error {
	rows, err := RunCompileBench(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderCompileBench(rows).Render(c.Out)
	med := map[string]float64{}
	for _, r := range rows {
		key := r.Workload + "/" + r.Variant
		c.RecordValue(key+"/dispatches", "nodes", bench.LowerIsBetter, float64(r.Dispatches))
		if r.Variant == "optimized" {
			c.RecordValue(r.Workload+"/fused-chains", "chains", bench.HigherIsBetter, float64(r.Fused))
		}
		if r.Variant == "planned" && r.SlabBytes > 0 {
			// Slab size is deterministic for a fixed model and batch — a
			// planner regression that loses reuse shows up here.
			c.RecordValue(key+"/slab", "B", bench.LowerIsBetter, float64(r.SlabBytes))
			c.RecordValue(key+"/plan-reuse", "x", bench.ReportOnly,
				float64(r.NoReuseBytes)/float64(r.SlabBytes))
		}
		rec := c.RecordSamples(key+"/forward", "s", bench.LowerIsBetter, r.Seconds)
		rec.Warmup = r.Warmup
		med[key] = rec.Stats.Median
	}
	for _, w := range []string{"mlp", "lenet"} {
		if b, ok := med[w+"/baseline"]; ok && med[w+"/optimized"] > 0 {
			c.RecordValue(w+"/speedup", "x", bench.ReportOnly, b/med[w+"/optimized"])
		}
		if b, ok := med[w+"/baseline"]; ok && med[w+"/planned"] > 0 {
			c.RecordValue(w+"/plan-speedup", "x", bench.ReportOnly, b/med[w+"/planned"])
		}
	}
	return nil
}
