package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// BranchyModel builds an inception-style multi-tower graph: `branches`
// independent conv→relu→conv chains off the same input, merged by Sum. The
// convolutions use the direct algorithm so each operator is
// single-threaded — the model's parallelism lives between operators, which
// is exactly what the dataflow scheduler exploits and the sequential
// interpreter cannot. It is the acceptance workload of the execution
// backends, shared by the repository benchmark harness (bench_test.go) and
// the "backend" suite experiment.
func BranchyModel(branches int) *graph.Model {
	const c, h, w = 8, 24, 24
	m := graph.NewModel("branchy")
	rng := tensor.NewRNG(17)
	m.AddInput("x", -1, c, h, w)
	var merged []string
	for b := 0; b < branches; b++ {
		w1 := fmt.Sprintf("b%d_w1", b)
		w2 := fmt.Sprintf("b%d_w2", b)
		m.AddInitializer(w1, tensor.HeInit(rng, c*9, c, c, 3, 3))
		m.AddInitializer(w2, tensor.HeInit(rng, c*9, c, c, 3, 3))
		conv := func(name, in, wname, out string) {
			m.AddNode(graph.NewNode("Conv", name, []string{in, wname}, []string{out},
				graph.IntsAttr("strides", 1, 1), graph.IntsAttr("pads", 1, 1),
				graph.IntsAttr("kernel_shape", 3, 3), graph.StringAttr("algo", "direct")))
		}
		conv(fmt.Sprintf("b%d_c1", b), "x", w1, fmt.Sprintf("b%d_y1", b))
		m.AddNode(graph.NewNode("Relu", fmt.Sprintf("b%d_r", b),
			[]string{fmt.Sprintf("b%d_y1", b)}, []string{fmt.Sprintf("b%d_a", b)}))
		conv(fmt.Sprintf("b%d_c2", b), fmt.Sprintf("b%d_a", b), w2, fmt.Sprintf("b%d_y2", b))
		merged = append(merged, fmt.Sprintf("b%d_y2", b))
	}
	m.AddNode(graph.NewNode("Sum", "merge", merged, []string{"y"}))
	m.AddOutput("y")
	return m
}

// BackendVariant is one executor configuration of the backend comparison.
// Opts constructs fresh options per call so arenas are never shared
// between executors.
type BackendVariant struct {
	Name string
	Opts func() []executor.Option
}

// BackendVariants enumerates the execution-backend configurations the
// micro-benchmarks compare.
func BackendVariants() []BackendVariant {
	return []BackendVariant{
		{"sequential", func() []executor.Option { return nil }},
		{"parallel", func() []executor.Option {
			return []executor.Option{executor.WithBackend(executor.NewParallelBackend(nil))}
		}},
		{"parallel+arena", func() []executor.Option {
			return []executor.Option{
				executor.WithBackend(executor.NewParallelBackend(nil)),
				executor.WithArena(tensor.NewArena())}
		}},
		{"sequential+arena", func() []executor.Option {
			return []executor.Option{executor.WithArena(tensor.NewArena())}
		}},
	}
}

// BackendBenchRow is one (variant, workload) micro-benchmark measurement:
// per-op wall-clock samples plus the allocator counters the benchmark
// schema records.
type BackendBenchRow struct {
	Variant     string
	Kind        string // "forward" or "train-step"
	Seconds     []float64
	BytesPerOp  int64
	AllocsPerOp int64
	Warmup      int
}

// RunBackendMicrobench measures forward-pass latency on the branchy model
// and full training-step latency on LeNet for every backend variant. Quick
// mode hand-rolls a short timing loop with runtime.ReadMemStats allocator
// deltas; full mode defers to testing.Benchmark for calibrated iteration
// counts and per-op allocation counters.
func RunBackendMicrobench(ctx context.Context, o Options) ([]BackendBenchRow, error) {
	rng := tensor.NewRNG(o.seed())
	fwdModel := BranchyModel(8)
	fwdFeeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(rng, 0, 1, 2, 8, 24, 24)}

	trainBatchSize := 32
	if o.Quick {
		trainBatchSize = 16
	}
	ds := training.SyntheticClassification(4*trainBatchSize, 10, []int{1, 28, 28}, 0.3, o.seed())
	batch := training.NewSequentialSampler(ds, trainBatchSize).Next()

	var rows []BackendBenchRow
	for _, v := range BackendVariants() {
		e, err := executor.New(fwdModel, v.Opts()...)
		if err != nil {
			return nil, err
		}
		fwd := func() error {
			_, err := e.Inference(ctx, fwdFeeds)
			return err
		}
		row, err := measureOp(o, v.Name, "forward", fwd)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)

		if v.Name == "sequential+arena" {
			continue // training comparison covers the three headline variants
		}
		m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28,
			WithHead: true, Seed: o.seed()})
		te, err := executor.New(m, v.Opts()...)
		if err != nil {
			return nil, err
		}
		te.SetTraining(true)
		d := training.NewDriver(te, training.NewFusedMomentum(0.05, 0.9))
		step := func() error {
			_, err := d.Train(ctx, batch.Feeds())
			return err
		}
		row, err = measureOp(o, v.Name, "train-step", step)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// measureOp times op with warmup discard. Quick mode records a few
// timeLoop samples and derives bytes/allocs from runtime.MemStats deltas;
// full mode runs testing.Benchmark.
func measureOp(o Options, variant, kind string, op func() error) (BackendBenchRow, error) {
	row := BackendBenchRow{Variant: variant, Kind: kind, Warmup: 1}
	if err := op(); err != nil { // warmup: pools, caches, lazy init
		return row, err
	}
	if o.Quick {
		const samples, warmup, iters = 3, 1, 2
		var opErr error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dist, _ := timeLoop(samples, warmup, iters, func() {
			if opErr == nil {
				opErr = op()
			}
		})
		runtime.ReadMemStats(&after)
		if opErr != nil {
			return row, opErr
		}
		row.Warmup += warmup
		row.Seconds = dist.Samples
		ops := uint64((warmup + samples) * iters) // MemStats brackets warmup rounds too
		row.BytesPerOp = int64((after.TotalAlloc - before.TotalAlloc) / ops)
		row.AllocsPerOp = int64((after.Mallocs - before.Mallocs) / ops)
		return row, nil
	}
	var failed error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				failed = err
				b.FailNow()
			}
		}
	})
	if failed != nil {
		return row, failed
	}
	row.Seconds = []float64{res.T.Seconds() / float64(res.N)}
	row.BytesPerOp = res.AllocedBytesPerOp()
	row.AllocsPerOp = res.AllocsPerOp()
	return row, nil
}

// RenderBackendBench renders the micro-benchmark rows.
func RenderBackendBench(rows []BackendBenchRow) *Table {
	t := &Table{Title: "Execution backends: forward & training-step micro-benchmarks",
		Headers: []string{"Variant", "Workload", "Median/op", "B/op", "allocs/op"}}
	for _, r := range rows {
		med := metrics.Summarize(r.Seconds).Median
		t.AddRow(r.Variant, r.Kind, fsec(med), fbytes(r.BytesPerOp), itoa(r.AllocsPerOp))
	}
	t.AddNote("forward: 8-tower branchy model (inter-operator parallelism); train-step: LeNet fwd+bwd+update")
	return t
}
