package kernels_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/training"
	"deep500/internal/transport"
)

// goldenPath holds one "class hash" line per equivalence class of the bit
// contract.
const goldenPath = "testdata/bit_contract.golden"

// cellFunc reports one cell of a row: a configuration's hash of each of the
// row's classes.
type cellFunc func(t *testing.T, cell string, hashes ...uint64)

// A bitRow is one row of the bit contract: every cell run reports must give
// the same hashes, and those must be the golden file's.
type bitRow struct {
	classes []string
	run     func(t *testing.T, cell cellFunc)
}

// TestBitContract holds the bit contract (docs/kernels.md, "The bit
// contract") as one table. Each row is an equivalence class: every cell it
// runs — kernel path, pool size, batch size, planned or unplanned pass,
// simulated or TCP fabric, a run resumed from a checkpoint — must give one
// FNV-64a hash, the class's line in testdata/bit_contract.golden. After an
// intended change regenerate the file with
// UPDATE_GOLDEN=1 go test ./internal/kernels -run '^TestBitContract$'
// and review the diff.
func TestBitContract(t *testing.T) {
	golden := readGolden(t)
	var lines strings.Builder
	classes := 0
	for _, r := range bitRows() {
		classes += len(r.classes)
		t.Run(r.classes[0], func(t *testing.T) {
			for i, h := range checkRow(t, r, golden) {
				fmt.Fprintf(&lines, "%s 0x%016x\n", r.classes[i], h)
			}
		})
	}
	if updating() && !t.Failed() && strings.Count(lines.String(), "\n") == classes {
		if err := os.WriteFile(goldenPath, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The names the kernel rows had before the contract was one table: each runs
// its TestBitContract row alone.
func TestGemmPackedBitsPinned(t *testing.T) { checkKernelRow(t, "kernel/gemmPacked") }
func TestConvBitsPinned(t *testing.T)       { checkKernelRow(t, "kernel/conv") }
func TestMaxPoolBitsPinned(t *testing.T)    { checkKernelRow(t, "kernel/maxPool") }
func TestReLUBitsPinned(t *testing.T)       { checkKernelRow(t, "kernel/relu") }
func TestAddBiasBitsPinned(t *testing.T)    { checkKernelRow(t, "kernel/addBias") }
func TestUpdateBitsPinned(t *testing.T)     { checkKernelRow(t, "kernel/momentum") }

func checkKernelRow(t *testing.T, class string) {
	for _, r := range kernelRows() {
		if r.classes[0] == class {
			checkRow(t, r, readGolden(t))
		}
	}
}

func updating() bool { return os.Getenv("UPDATE_GOLDEN") != "" }

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	golden := map[string]uint64{}
	data, err := os.ReadFile(goldenPath)
	if err != nil && !updating() {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if h, err := strconv.ParseUint(f[1], 0, 64); err == nil {
				golden[f[0]] = h
			}
		}
	}
	return golden
}

// checkRow runs r, holds every cell to the first and the agreed hashes to
// golden, and returns the agreed hashes. The golden model rows were recorded
// on amd64, where they hold at every GOAMD64 level; on another architecture
// only their cells are held to each other. The kernel rows hold everywhere.
func checkRow(t *testing.T, r bitRow, golden map[string]uint64) []uint64 {
	t.Helper()
	var first string
	var agreed []uint64
	r.run(t, func(t *testing.T, cell string, hashes ...uint64) {
		t.Helper()
		if agreed == nil {
			first, agreed = cell, hashes
		}
		for i, h := range hashes {
			if h != agreed[i] {
				t.Errorf("%s: %s gives %#016x, %s gave %#016x", r.classes[i], cell, h, first, agreed[i])
			}
		}
	})
	if agreed == nil {
		t.Fatal("no cell ran")
	}
	for i, class := range r.classes {
		want, ok := golden[class]
		switch {
		case updating():
		case !ok:
			t.Errorf("%s is not in %s (regenerate with UPDATE_GOLDEN=1)", class, goldenPath)
		case agreed[i] != want && (strings.HasPrefix(class, "kernel/") || runtime.GOARCH == "amd64"):
			t.Errorf("%s: hash %#016x, golden %#016x: a change moved output bits", class, agreed[i], want)
		}
	}
	return agreed
}

// batches are the batch sizes of the model rows: one row alone, a batch
// the small-M GEMM takes, and one the packed GEMM takes.
var batches = []int{1, 8, 32}

func bitRows() []bitRow {
	rows := kernelRows()
	for _, z := range zoo {
		rows = append(rows, forwardRow(z))
	}
	for _, z := range zoo {
		for _, batch := range batches {
			rows = append(rows, gradientRow(z, batch))
		}
	}
	return append(rows, trajectoryRows()...)
}

// kernelRows are the kernel sweeps, each run on every kernel path.
func kernelRows() []bitRow {
	var rows []bitRow
	for _, k := range kernels.KernelSweeps {
		rows = append(rows, bitRow{k.Classes, func(t *testing.T, cell cellFunc) {
			kernels.OnEachMicroKernel(t, func(t *testing.T) {
				k.Sweep(t, func(suffix string, hashes ...uint64) { cell(t, t.Name()+suffix, hashes...) })
			})
		}})
	}
	return rows
}

// onEachConfig runs f on every kernel path, each on a one- and a two-worker
// pool.
func onEachConfig(f func(config string)) {
	defer func(p *kernels.Pool) { kernels.Default = p }(kernels.Default)
	kernels.OnEachKernelPath(func(path string) {
		for _, workers := range []int{1, 2} {
			kernels.Default = kernels.NewPool(workers)
			f(fmt.Sprintf("%s pool=%d", path, workers))
		}
	})
}

// zooModel is an architecture of internal/models at a CPU-test scale.
type zooModel struct {
	name  string
	cfg   models.Config
	build func(models.Config) *graph.Model
}

var zoo = []zooModel{
	{"mlp", models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7},
		func(c models.Config) *graph.Model { return models.MLP(c, 32, 16) }},
	{"lenet", models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 7}, models.LeNet},
	{"alexnet", models.Config{Classes: 10, Channels: 3, Height: 64, Width: 64, Seed: 7, WidthScale: 0.0625}, models.AlexNet},
	{"resnet8", models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 7, WidthScale: 0.25},
		func(c models.Config) *graph.Model { return models.ResNet(8, c) }},
	{"wrn16", models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16, Seed: 7, WidthScale: 0.25},
		func(c models.Config) *graph.Model { return models.WideResNet(16, 1, c) }},
}

// feeds returns, for each batch size, feeds of the first batch rows of one
// fixed 32-row input, so row 0 is the same at every batch size, with labels.
func (z zooModel) feeds() map[int]map[string]*tensor.Tensor {
	c := z.cfg
	x := tensor.RandNormal(tensor.NewRNG(11), 0, 1, 32, c.Channels, c.Height, c.Width).Data()
	feeds := map[int]map[string]*tensor.Tensor{}
	for _, batch := range batches {
		labels := tensor.New(batch)
		for i := range labels.Data() {
			labels.Data()[i] = float32(i % c.Classes)
		}
		feeds[batch] = map[string]*tensor.Tensor{
			"x":      tensor.From(x[:batch*c.Channels*c.Height*c.Width], batch, c.Channels, c.Height, c.Width),
			"labels": labels,
		}
	}
	return feeds
}

// forwardRow: row 0 of the model's inference output is one class across
// batch size, kernel path, pool size and the unplanned first pass versus
// the third, which runs out of the memory plan.
func forwardRow(z zooModel) bitRow {
	return bitRow{[]string{"forward/" + z.name}, func(t *testing.T, cell cellFunc) {
		m, feeds := z.build(z.cfg), z.feeds()
		onEachConfig(func(config string) {
			for _, batch := range batches {
				e := executor.MustNew(m)
				for pass := 1; pass <= 3; pass++ {
					out, err := e.Inference(context.Background(), feeds[batch])
					if err != nil {
						t.Fatal(err)
					}
					if pass == 2 { // the profiling pass
						continue
					}
					h := kernels.NewBitsHasher()
					for _, name := range m.Outputs {
						h.Floats(out[name].Data()[:out[name].Size()/batch])
					}
					cell(t, fmt.Sprintf("batch=%d %s pass=%d", batch, config, pass), h.Sum64())
				}
			}
		})
	}}
}

// gradientRow: the parameter gradients of one batch are one class across
// kernel path and pool size.
func gradientRow(z zooModel, batch int) bitRow {
	return bitRow{[]string{fmt.Sprintf("gradient/%s/batch=%d", z.name, batch)}, func(t *testing.T, cell cellFunc) {
		cfg := z.cfg
		cfg.WithHead = true
		m, feeds := z.build(cfg), z.feeds()[batch]
		onEachConfig(func(config string) {
			e := executor.MustNew(m)
			if _, err := e.InferenceAndBackprop(context.Background(), feeds, "loss"); err != nil {
				t.Fatal(err)
			}
			h := kernels.NewBitsHasher()
			for _, pg := range e.Network().Gradients() {
				h.Floats(pg.Grad.Data())
			}
			cell(t, config, h.Sum64())
		})
	}}
}

// trajectoryRows: three fused-Momentum steps of a small MLP, alone and as
// two DSGD ranks, each one class with and without a D5NX checkpoint round
// trip after step 2; the DSGD class on the simulated and the TCP fabric.
func trajectoryRows() []bitRow {
	return []bitRow{
		{[]string{"trajectory/serial"}, func(t *testing.T, cell cellFunc) {
			onEachConfig(func(config string) {
				for _, resume := range []bool{false, true} {
					trace, err := trainMLP(context.Background(), nil, resume)
					if err != nil {
						t.Fatal(err)
					}
					h := kernels.NewBitsHasher()
					h.Floats(trace)
					cell(t, fmt.Sprintf("%s resumed=%v", config, resume), h.Sum64())
				}
			})
		}},
		{[]string{"trajectory/dsgd"}, func(t *testing.T, cell cellFunc) {
			for _, resume := range []bool{false, true} {
				traces := make([][]float32, 2)
				if _, _, err := mpi.Run(2, mpi.Aries(), func(r *mpi.Rank) (err error) {
					traces[r.ID()], err = trainMLP(context.Background(), r, resume)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				cell(t, fmt.Sprintf("simulator resumed=%v", resume), hashTraces(traces))
			}
			ranks, err := transport.NewLocalWorld(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			traces, errs := make([][]float32, 2), make([]error, 2)
			var wg sync.WaitGroup
			for i, r := range ranks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if traces[i], errs[i] = trainMLP(ctx, r, false); errs[i] != nil {
						cancel() // the peer's all-reduce would wait for this rank forever
					}
				}()
			}
			wg.Wait()
			for i, r := range ranks {
				r.Close()
				if errs[i] != nil {
					t.Fatalf("TCP rank %d: %v", i, errs[i])
				}
			}
			cell(t, "TCP", hashTraces(traces))
		}},
	}
}

func hashTraces(traces [][]float32) uint64 {
	h := kernels.NewBitsHasher()
	for _, tr := range traces {
		h.Floats(tr)
	}
	return h.Sum64()
}

// trainMLP trains a fresh small MLP for three fused-Momentum steps as rank r
// of a ring-all-reduce DSGD world, or alone when r is nil, and returns each
// step's loss followed by the final parameters. With resume, the model and
// the optimizer and sampler state go through a D5NX checkpoint after step 2
// and training continues from what was decoded.
func trainMLP(ctx context.Context, r dist.Rank, resume bool) ([]float32, error) {
	const steps, batch = 3, 8
	world, id := 1, 0
	if r != nil {
		world, id = r.Size(), r.ID()
	}
	ds := training.SyntheticClassification(batch*steps, 4, []int{1, 6, 6}, 0.2, 13)
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 6, Width: 6, WithHead: true, Seed: 21}, 16)
	rule := training.NewFusedMomentum(0.05, 0.9)
	sampler := dist.NewDistributedSampler(ds, batch/world, id, world, 5)
	newOpt := func() training.Optimizer {
		e := executor.MustNew(m)
		e.SetTraining(true)
		d := training.NewDriver(e, rule)
		if r == nil {
			return d
		}
		return dist.NewConsistentDecentralized(d, r, mpi.AllreduceRing)
	}
	opt := newOpt()
	var trace []float32
	for step := 1; step <= steps; step++ {
		out, err := opt.Train(ctx, sampler.Next().Feeds())
		if err != nil {
			return nil, err
		}
		trace = append(trace, out["loss"].Data()[0])
		if !resume || step != 2 {
			continue
		}
		var buf bytes.Buffer
		ts := training.CaptureTrainState(step, 0, true, rule, sampler)
		if err := graph.EncodeCheckpoint(&graph.Checkpoint{Model: m, Train: ts}, &buf); err != nil {
			return nil, err
		}
		ck, err := graph.DecodeCheckpoint(&buf)
		if err != nil {
			return nil, err
		}
		m, rule = ck.Model, training.NewFusedMomentum(0.05, 0.9)
		sampler = dist.NewDistributedSampler(ds, batch/world, id, world, 0)
		if err := training.RestoreTrainState(ck.Train, rule, sampler); err != nil {
			return nil, err
		}
		opt = newOpt()
	}
	trace = append(trace, opt.Executor().Network().ParamSlab().Data()...)
	return trace, nil
}
