package deep500

// Repository-level benchmark harness: one benchmark per table/figure of the
// paper's evaluation (run the full experiment drivers with
// `go run ./cmd/d500bench`), plus ablation benchmarks for this
// reproduction's own design choices: the GEMM and convolution algorithms,
// the all-reduce algorithm, a fused versus a composed Adam update, and the
// sampler's shuffle buffer. Benchmarks use scaled problem sizes so
// `go test -bench=. -benchmem` completes in minutes on a laptop.

import (
	"context"
	"fmt"
	"testing"

	"deep500/internal/core"
	"deep500/internal/datasets"
	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/frameworks"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/ops"
	"deep500/internal/tensor"
	"deep500/internal/training"
	"deep500/internal/transform"
	"deep500/internal/transport"
)

var benchOpts = core.Options{Quick: true, Seed: 99}

// --- Fig. 6: Level 0 operator performance -------------------------------

func BenchmarkFig6ConvSpotlight(b *testing.B) {
	// spotlight shape (scaled): conv through each backend vs bare kernel
	p := core.ConvProblem{N: 4, C: 3, H: 64, W: 64, M: 16, K: 3, Stride: 1, Pad: 1}
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 0, 1, p.N, p.C, p.H, p.W)

	b.Run("deepbench", func(b *testing.B) {
		s := kernels.ConvShape{N: p.N, C: p.C, H: p.H, W: p.W, M: p.M,
			KH: p.K, KW: p.K, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		w := tensor.RandNormal(rng, 0, 0.2, p.M, p.C, p.K, p.K)
		out := make([]float32, s.OutputSize())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.Conv2D(kernels.ConvIm2Col, s, x.Data(), w.Data(), nil, out)
		}
	})
	for _, prof := range []frameworks.Profile{frameworks.TorchGo, frameworks.CF2Go, frameworks.TFGo} {
		prof.MemoryCapacity = 0
		b.Run(prof.Name, func(b *testing.B) {
			m := benchConvGraph(p)
			e, err := prof.NewExecutor(m)
			if err != nil {
				b.Fatal(err)
			}
			feeds := map[string]*tensor.Tensor{"x": x}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Inference(context.Background(), feeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchConvGraph wraps one conv problem into a runnable model.
func benchConvGraph(p core.ConvProblem) *graph.Model {
	m := graph.NewModel("conv-bench")
	rng := tensor.NewRNG(11)
	m.AddInput("x", -1, p.C, p.H, p.W)
	m.AddInitializer("w", tensor.HeInit(rng, p.C*p.K*p.K, p.M, p.C, p.K, p.K))
	m.AddNode(graph.NewNode("Conv", "conv", []string{"x", "w"}, []string{"y"},
		graph.IntsAttr("strides", int64(p.Stride), int64(p.Stride)),
		graph.IntsAttr("pads", int64(p.Pad), int64(p.Pad)),
		graph.IntsAttr("kernel_shape", int64(p.K), int64(p.K))))
	m.AddOutput("y")
	return m
}

func BenchmarkFig6GemmSpotlight(b *testing.B) {
	// spotlight M=K=2560 N=64 scaled to 640
	m, k, n := 640, 640, 64
	rng := tensor.NewRNG(2)
	a := tensor.RandNormal(rng, 0, 1, m, k)
	bb := tensor.RandNormal(rng, 0, 1, k, n)
	c := make([]float32, m*n)
	b.Run("deepbench", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.Gemm(a.Data(), bb.Data(), c, m, k, n)
		}
	})
}

// --- Fig. 7: micro-batch transformation ---------------------------------

func BenchmarkFig7Microbatch(b *testing.B) {
	cfg := models.Config{Classes: 10, Channels: 3, Height: 64, Width: 64,
		Seed: 3, WidthScale: 0.0625}
	batch := 16
	rng := tensor.NewRNG(3)
	x := tensor.RandNormal(rng, 0, 1, batch, 3, 64, 64)
	feeds := map[string]*tensor.Tensor{"x": x}
	for _, variant := range []string{"original", "microbatched"} {
		b.Run(variant, func(b *testing.B) {
			m := models.AlexNet(cfg)
			transform.StripDropout(m)
			if variant == "microbatched" {
				if _, err := transform.MicrobatchModel(m, batch, 4<<20, nil); err != nil {
					b.Fatal(err)
				}
			}
			e, err := executor.New(m)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Inference(context.Background(), feeds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §V-D: instrumentation overhead --------------------------------------

func BenchmarkOverheadTrainingStep(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		name := "native"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 16, Width: 16,
				WithHead: true, Seed: 4}, 128)
			e := executor.MustNew(m)
			e.SetTraining(true)
			if instrumented {
				fo := metrics.NewFrameworkOverhead()
				e.Events = fo.Events()
			}
			d := training.NewDriver(e, training.NewFusedMomentum(0.05, 0.9))
			ds := training.SyntheticClassification(256, 10, []int{1, 16, 16}, 0.3, 4)
			s := training.NewShuffleSampler(ds, 64, 1)
			batch := s.Next()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Train(context.Background(), batch.Feeds()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 8 / Table III: dataset loading ---------------------------------

func BenchmarkFig8RawVsSynth(b *testing.B) {
	dir := b.TempDir()
	spec := datasets.MNIST
	path := dir + "/mnist.bin"
	if err := datasets.WriteRawBinary(path, spec, 256, 1); err != nil {
		b.Fatal(err)
	}
	ds, err := datasets.OpenRawBinary(path, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("real", func(b *testing.B) {
		s := training.NewSequentialSampler(ds, 128)
		for i := 0; i < b.N; i++ {
			s.Reset()
			s.Next()
		}
	})
	b.Run("synth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			datasets.SynthBatch(spec, 128, uint64(i))
		}
	})
}

func BenchmarkTable3Decode(b *testing.B) {
	dir := b.TempDir()
	spec := datasets.Spec{Name: "im", H: 64, W: 64, C: 3, Classes: 10}
	tarPath := dir + "/im.tar"
	if err := datasets.WriteIndexedTar(tarPath, spec, 64, 2); err != nil {
		b.Fatal(err)
	}
	it, err := datasets.OpenIndexedTar(tarPath, spec)
	if err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	recPaths, err := datasets.WriteRecordDataset(dir+"/im", spec, 64, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	b.Run("tar+basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := datasets.TarBatch(it, idx, datasets.BasicDecoder{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tar+turbo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := datasets.TarBatch(it, idx, datasets.TurboDecoder{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record+native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := datasets.NewRecordPipeline(recPaths, spec, 64, true, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := p.NextBatch(32); err != nil {
				b.Fatal(err)
			}
			p.Close()
		}
	})
}

// --- Fig. 9/10: optimizer step cost --------------------------------------

func BenchmarkFig9OptimizerStep(b *testing.B) {
	cases := []struct {
		name string
		mk   func() training.ThreeStep
	}{
		{"sgd-ref", func() training.ThreeStep { return training.NewGradientDescent(0.05) }},
		{"sgd-fused", func() training.ThreeStep { return training.NewFusedSGD(0.05) }},
		{"adam-ref", func() training.ThreeStep { return training.NewAdam(0.001) }},
		{"adam-fused", func() training.ThreeStep { return training.NewFusedAdam(0.001) }},
		{"accelegrad", func() training.ThreeStep { return training.NewAcceleGrad(0.02, 1, 1) }},
	}
	ds := training.SyntheticClassification(128, 10, []int{1, 16, 16}, 0.3, 5)
	s := training.NewSequentialSampler(ds, 64)
	batch := s.Next()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 16, Width: 16,
				WithHead: true, Seed: 5}, 256)
			e := executor.MustNew(m)
			e.SetTraining(true)
			d := training.NewDriver(e, c.mk())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Train(context.Background(), batch.Feeds()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerUpdate is the update alone — the Fig. 9 contrast without
// the forward and backward passes around it: each product (fused, in-place)
// rule against the composing reference form, on one 512×512 parameter. Run
// with -benchmem: the fused side allocates nothing.
func BenchmarkOptimizerUpdate(b *testing.B) {
	cases := []struct {
		name       string
		fused, ref training.ThreeStep
	}{
		{"sgd", training.NewFusedSGD(0.05), training.NewGradientDescent(0.05)},
		{"momentum", training.NewFusedMomentum(0.02, 0.9), training.NewMomentum(0.02, 0.9)},
		{"nesterov", training.NewFusedNesterov(0.02, 0.9), training.NewNesterov(0.02, 0.9)},
		{"adagrad", training.NewFusedAdaGrad(0.02), training.NewAdaGrad(0.02)},
		{"rmsprop", training.NewFusedRMSProp(0.002, 0.9), training.NewRMSProp(0.002, 0.9)},
		{"adam", training.NewFusedAdam(0.001), training.NewAdam(0.001)},
	}
	rng := tensor.NewRNG(9)
	grad := tensor.RandNormal(rng, 0, 1, 512, 512)
	for _, c := range cases {
		for _, side := range []struct {
			name string
			rule training.ThreeStep
		}{{"fused", c.fused}, {"ref", c.ref}} {
			b.Run(c.name+"/"+side.name, func(b *testing.B) {
				param := tensor.RandNormal(rng, 0, 1, 512, 512)
				b.SetBytes(param.Bytes())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					side.rule.NewInput()
					param = side.rule.UpdateRule(grad, param, "w")
				}
			})
		}
	}
}

// BenchmarkTrainStepDSGD is one whole Level-3 step in the shape of the
// train_tcp_mlp workload: two ranks over loopback TCP, MLP 784-512-512-10,
// batch 32 per rank, product SGD under ring-allreduce DSGD. One iteration
// is one step of both ranks. Run with -benchmem.
func BenchmarkTrainStepDSGD(b *testing.B) {
	const workers, batch = 2, 32
	ranks, err := transport.NewLocalWorld(workers, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, r := range ranks {
			r.Close()
		}
	}()
	ds := training.SyntheticClassification(workers*batch, 10, []int{1, 28, 28}, 0.3, 5)
	opts := make([]training.Optimizer, workers)
	feeds := make([]map[string]*tensor.Tensor, workers)
	for i, r := range ranks {
		m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28,
			WithHead: true, Seed: 5}, 512, 512)
		e := executor.MustNew(m)
		e.SetTraining(true)
		opts[i] = dist.NewConsistentDecentralized(
			training.NewDriver(e, training.NewFusedSGD(0.05)), r, mpi.AllreduceRing)
		feeds[i] = training.NewShardSampler(ds, batch, i, workers, 1).Next().Feeds()
	}
	// Rank 1 follows rank 0 step for step; a nil error per step keeps them
	// in lockstep and surfaces a fabric failure.
	start, done := make(chan struct{}), make(chan error)
	go func() {
		for range start {
			_, err := opts[1].Train(context.Background(), feeds[1])
			done <- err
		}
	}()
	defer close(start)
	step := func() {
		start <- struct{}{}
		_, err := opts[0].Train(context.Background(), feeds[0])
		if ferr := <-done; err == nil {
			err = ferr
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// --- Fig. 11: divergence measurement cost --------------------------------

func BenchmarkFig11DivergenceStep(b *testing.B) {
	mk := func(v training.AdamVariant) (*executor.Executor, *training.Driver) {
		m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8,
			WithHead: true, Seed: 6}, 64)
		e := executor.MustNew(m)
		e.SetTraining(true)
		return e, training.NewDriver(e, training.NewAdamVariant(0.001, v))
	}
	e1, d1 := mk(training.AdamReference)
	e2, d2 := mk(training.AdamEpsInside)
	ds := training.SyntheticClassification(128, 10, []int{1, 8, 8}, 0.3, 6)
	batch := training.NewSequentialSampler(ds, 32).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d1.Train(context.Background(), batch.Feeds()); err != nil {
			b.Fatal(err)
		}
		if _, err := d2.Train(context.Background(), batch.Feeds()); err != nil {
			b.Fatal(err)
		}
		for _, name := range e1.Network().Params() {
			p1, _ := e1.Network().FetchTensor(name)
			p2, _ := e2.Network().FetchTensor(name)
			tensor.Compare(p2, p1)
		}
	}
}

// --- Fig. 12: distributed scaling simulation -----------------------------

func BenchmarkFig12StrongRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFig12Strong(benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: GEMM, convolution, all-reduce, Adam fusion, shuffle -----

func BenchmarkAblationGemm(b *testing.B) {
	m, k, n := 256, 256, 256
	rng := tensor.NewRNG(7)
	a := tensor.RandNormal(rng, 0, 1, m, k)
	bb := tensor.RandNormal(rng, 0, 1, k, n)
	c := make([]float32, m*n)
	for name, gemm := range map[string]func(a, b, c []float32, m, k, n int){
		"naive": kernels.GemmNaive, "product": kernels.Gemm,
	} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(kernels.GemmFLOPs(m, k, n)))
			for i := 0; i < b.N; i++ {
				gemm(a.Data(), bb.Data(), c, m, k, n)
			}
		})
	}
}

func BenchmarkAblationConv(b *testing.B) {
	s := kernels.ConvShape{N: 2, C: 16, H: 32, W: 32, M: 16, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := tensor.NewRNG(8)
	in := tensor.RandNormal(rng, 0, 1, s.InputSize())
	w := tensor.RandNormal(rng, 0, 0.2, s.WeightSize())
	out := make([]float32, s.OutputSize())
	for _, algo := range []kernels.ConvAlgo{kernels.ConvDirect, kernels.ConvIm2Col, kernels.ConvWinograd} {
		b.Run(algo.String(), func(b *testing.B) {
			b.SetBytes(s.FLOPs())
			for i := 0; i < b.N; i++ {
				kernels.Conv2D(algo, s, in.Data(), w.Data(), nil, out)
			}
		})
	}
}

// BenchmarkConvBackward measures kernels.Conv2DBackward on LeNet's two
// convolutions at the training batch size. conv1 reads the data feed, so the
// executor's requires-grad mask leaves its dX out; both forms are reported.
func BenchmarkConvBackward(b *testing.B) {
	for _, bc := range []struct {
		name string
		s    kernels.ConvShape
	}{
		{"conv1", kernels.ConvShape{N: 32, C: 1, H: 28, W: 28, M: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
		{"conv2", kernels.ConvShape{N: 32, C: 6, H: 14, W: 14, M: 16, KH: 5, KW: 5, StrideH: 1, StrideW: 1}},
	} {
		s := bc.s
		rng := tensor.NewRNG(9)
		x := tensor.RandNormal(rng, 0, 1, s.InputSize()).Data()
		w := tensor.RandNormal(rng, 0, 0.2, s.WeightSize()).Data()
		g := tensor.RandNormal(rng, 0, 1, s.OutputSize()).Data()
		dX, dW, dB := make([]float32, s.InputSize()), make([]float32, s.WeightSize()), make([]float32, s.M)
		for _, withDX := range []bool{true, false} {
			name, gx := bc.name+"/dX", dX
			if !withDX {
				name, gx = bc.name+"/no-dX", nil
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					kernels.Conv2DBackward(s, x, w, g, gx, dW, dB)
				}
			})
		}
	}
}

func BenchmarkAblationAllreduce(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("ring/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := mpi.Run(8, mpi.Aries(), func(r *mpi.Rank) error {
					data := make([]float32, size)
					return dist.AllreduceSum(context.Background(), r, data, mpi.SimActual)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationAdamFusion(b *testing.B) {
	n := 100_000
	rng := tensor.NewRNG(9)
	grad := tensor.RandNormal(rng, 0, 1, n)
	b.Run("fused", func(b *testing.B) {
		param := tensor.RandNormal(rng, 0, 1, n)
		m := make([]float32, n)
		v := make([]float32, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kernels.AdamFused(param.Data(), grad.Data(), m, v, 0.001, 0.9, 0.999, 1e-8, i+1)
		}
	})
	b.Run("composed", func(b *testing.B) {
		adam := training.NewAdam(0.001)
		param := tensor.RandNormal(rng, 0, 1, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			adam.NewInput()
			param = adam.UpdateRule(grad, param, "p")
		}
	})
}

func BenchmarkAblationShuffleBuffer(b *testing.B) {
	dir := b.TempDir()
	spec := datasets.MNIST
	paths, err := datasets.WriteRecordDataset(dir+"/sb", spec, 128, 1, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, buf := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("buffer%d", buf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := datasets.NewRecordPipeline(paths, spec, buf, true, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := p.NextBatch(32); err != nil {
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

func BenchmarkSerializationD5NX(b *testing.B) {
	m := models.ResNet(18, models.Config{Classes: 10, Channels: 3, Height: 32, Width: 32,
		Seed: 10, WidthScale: 0.25})
	dir := b.TempDir()
	path := dir + "/m.d5nx"
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := graph.Save(m, path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		if err := graph.Save(m, path); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := graph.Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRNNCell covers the fourth DeepBench operator family (Table II
// "Ops": Conv, GEMM, RNN, Allreduce).
func BenchmarkRNNCell(b *testing.B) {
	rng := tensor.NewRNG(12)
	n, idim, hdim := 32, 128, 128
	inputs := []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, n, idim),
		tensor.RandNormal(rng, 0, 0.5, n, hdim),
		tensor.RandNormal(rng, 0, 0.3, idim, hdim),
		tensor.RandNormal(rng, 0, 0.3, hdim, hdim),
		tensor.RandNormal(rng, 0, 0.1, hdim),
	}
	cell := ops.NewRNNTanhCell()
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cell.Forward(inputs)
		}
	})
	b.Run("forward+backward", func(b *testing.B) {
		outs := cell.Forward(inputs)
		grads := []*tensor.Tensor{tensor.Full(1, n, hdim)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			outs = cell.Forward(inputs)
			cell.Backward(grads, inputs, outs)
		}
	})
}
