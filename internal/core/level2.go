package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"deep500/internal/datasets"
	"deep500/internal/executor"
	"deep500/internal/frameworks"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// Fig8Row is one dataset-latency measurement; Summary keeps the raw
// samples for export into the benchmark schema.
type Fig8Row struct {
	Dataset   string
	Generator string // "real" or "synth", or the distributed variants
	Summary   metrics.Distribution
}

// Fig8Result is the dataset-latency experiment outcome.
type Fig8Result struct {
	Batch int
	Small []Fig8Row // MNIST/F-MNIST/CIFAR (raw binary)
	Large []Fig8Row // ImageNet-scale (record shards, 1/64 nodes)
}

// RunFig8 reproduces Fig. 8: minibatch-loading latency of real storage vs
// synthetic in-memory generation, for small raw-binary datasets and an
// ImageNet-scale record dataset sharded into 1 vs many files read by 1 vs
// 64 concurrent nodes.
func RunFig8(o Options, workDir string) (Fig8Result, error) {
	batch := 128
	nSamples := 512
	imagenetSpec := datasets.Spec{Name: "imagenet(scaled)", H: 64, W: 64, C: 3, Classes: 100}
	nodes := 64
	shardsMany := 64
	reruns := o.reruns()
	if o.Quick {
		batch, nSamples, nodes, shardsMany = 16, 64, 8, 8
		imagenetSpec.H, imagenetSpec.W = 32, 32
	}
	res := Fig8Result{Batch: batch}

	// --- small datasets: raw binary vs synthetic generation ---
	for _, spec := range []datasets.Spec{datasets.MNIST, datasets.FashionMNIST, datasets.CIFAR10, datasets.CIFAR100} {
		path := filepath.Join(workDir, spec.Name+".bin")
		if err := datasets.WriteRawBinary(path, spec, nSamples, o.seed()); err != nil {
			return res, err
		}
		ds, err := datasets.OpenRawBinary(path, spec)
		if err != nil {
			return res, err
		}
		real := metrics.NewDatasetLatency(spec.Name + "/real")
		sampler := training.NewSequentialSampler(ds, batch)
		for r := 0; r < reruns; r++ {
			sampler.Reset()
			real.Begin()
			sampler.Next()
			real.End()
		}
		synth := metrics.NewDatasetLatency(spec.Name + "/synth")
		for r := 0; r < reruns; r++ {
			synth.Begin()
			datasets.SynthBatch(spec, batch, o.seed()+uint64(r))
			synth.End()
		}
		res.Small = append(res.Small,
			Fig8Row{spec.Name, "real", real.Distribution()},
			Fig8Row{spec.Name, "synth", synth.Distribution()})
	}

	// --- ImageNet-scale: record shards × node counts ---
	for _, shards := range []int{1, shardsMany} {
		prefix := filepath.Join(workDir, fmt.Sprintf("imagenet-%d", shards))
		paths, err := datasets.WriteRecordDataset(prefix, imagenetSpec, nSamples, shards, o.seed())
		if err != nil {
			return res, err
		}
		for _, nNodes := range []int{1, nodes} {
			lat := metrics.NewDatasetLatency(fmt.Sprintf("%dfiles+%dnodes", shards, nNodes))
			for r := 0; r < reruns; r++ {
				perNode := make([]float64, nNodes)
				var wg sync.WaitGroup
				for node := 0; node < nNodes; node++ {
					wg.Add(1)
					go func(node int) {
						defer wg.Done()
						// each node streams its slice of the shard list
						nodePaths := paths
						if len(paths) >= nNodes {
							share := len(paths) / nNodes
							nodePaths = paths[node*share : (node+1)*share]
						}
						p, err := datasets.NewRecordPipeline(nodePaths, imagenetSpec, batch, true, o.seed()+uint64(node))
						if err != nil {
							return
						}
						defer p.Close()
						start := time.Now()
						p.NextBatch(batch)
						perNode[node] = time.Since(start).Seconds()
					}(node)
				}
				wg.Wait()
				worst := 0.0
				for _, v := range perNode {
					if v > worst {
						worst = v
					}
				}
				lat.Record(worst)
			}
			res.Large = append(res.Large, Fig8Row{
				Dataset:   "imagenet",
				Generator: fmt.Sprintf("%dfiles+%dnodes", shards, nNodes),
				Summary:   lat.Distribution(),
			})
		}
	}
	synth := metrics.NewDatasetLatency("imagenet/synth")
	for r := 0; r < reruns; r++ {
		synth.Begin()
		datasets.SynthBatch(imagenetSpec, batch, o.seed()+uint64(r))
		synth.End()
	}
	res.Large = append(res.Large, Fig8Row{"imagenet", "synth", synth.Distribution()})
	return res, nil
}

// RenderFig8 renders the dataset-latency results.
func RenderFig8(r Fig8Result) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 8: minibatch (B=%d) loading latency", r.Batch),
		Headers: []string{"Dataset", "Generator", "Median", "CI95"}}
	for _, rows := range [][]Fig8Row{r.Small, r.Large} {
		for _, row := range rows {
			t.AddRow(row.Dataset, row.Generator, fsec(row.Summary.Median),
				fmt.Sprintf("[%s, %s]", fsec(row.Summary.CI95Low), fsec(row.Summary.CI95High)))
		}
	}
	t.AddNote("expected shape: small in-memory datasets load faster than synth generation; JPEG-decoding ImageNet is orders slower than synth")
	return t
}

// Table3Row is one decoding-latency cell.
type Table3Row struct {
	DataKind string // "1 image (sequential)" etc.
	Pipeline string // tar+basic | tar+turbo | record+native
	Seconds  float64
}

// RunTable3 reproduces Table III: the ImageNet decoding-latency breakdown
// across containers (indexed tar vs record), decoders (basic/"PIL" vs
// turbo vs record-native pipelined) and access patterns (sequential vs
// shuffled).
func RunTable3(o Options, workDir string) ([]Table3Row, error) {
	spec := datasets.Spec{Name: "imagenet(scaled)", H: 64, W: 64, C: 3, Classes: 100}
	n := 512
	batch := 128
	if o.Quick {
		n, batch = 160, 64
	}
	tarPath := filepath.Join(workDir, "t3.tar")
	if err := datasets.WriteIndexedTar(tarPath, spec, n, o.seed()); err != nil {
		return nil, err
	}
	it, err := datasets.OpenIndexedTar(tarPath, spec)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	recPaths, err := datasets.WriteRecordDataset(filepath.Join(workDir, "t3"), spec, n, 1, o.seed())
	if err != nil {
		return nil, err
	}

	rng := tensor.NewRNG(o.seed())
	seqIdx := make([]int, batch)
	for i := range seqIdx {
		seqIdx[i] = i
	}
	shufIdx := rng.Perm(n)[:batch]

	median := func(f func() error) (float64, error) {
		s := metrics.NewSampler("t", "s")
		for r := 0; r < o.reruns(); r++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			s.Record(time.Since(start).Seconds())
		}
		return s.Summarize().Median, nil
	}

	var rows []Table3Row
	add := func(kind, pipeline string, sec float64) {
		rows = append(rows, Table3Row{kind, pipeline, sec})
	}
	type tarPipe struct {
		name string
		dec  datasets.Decoder
	}
	for _, p := range []tarPipe{{"tar+basic(PIL)", datasets.BasicDecoder{}}, {"tar+turbo", datasets.TurboDecoder{}}} {
		for _, access := range []struct {
			name string
			one  []int
			many []int
		}{
			{"sequential", seqIdx[:1], seqIdx},
			{"shuffled", shufIdx[:1], shufIdx},
		} {
			one, err := median(func() error {
				_, _, err := datasets.TarBatch(it, access.one, p.dec)
				return err
			})
			if err != nil {
				return nil, err
			}
			add("1 image ("+access.name+")", p.name, one)
			many, err := median(func() error {
				_, _, err := datasets.TarBatch(it, access.many, p.dec)
				return err
			})
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("%d images (%s)", batch, access.name), p.name, many)
		}
	}
	// record+native pipeline (pseudo-shuffled and sequential)
	for _, shuffle := range []bool{false, true} {
		name := "sequential"
		if shuffle {
			name = "pseudo-shuffled"
		}
		one, err := median(func() error {
			p, err := datasets.NewRecordPipeline(recPaths, spec, batch, shuffle, o.seed())
			if err != nil {
				return err
			}
			defer p.Close()
			_, _, err = p.NextBatch(1)
			return err
		})
		if err != nil {
			return nil, err
		}
		add("1 image ("+name+")", "record+native", one)
		many, err := median(func() error {
			p, err := datasets.NewRecordPipeline(recPaths, spec, batch, shuffle, o.seed())
			if err != nil {
				return err
			}
			defer p.Close()
			_, _, err = p.NextBatch(batch)
			return err
		})
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("%d images (%s)", batch, name), "record+native", many)
	}
	return rows, nil
}

// RenderTable3 renders the decode-latency breakdown.
func RenderTable3(rows []Table3Row) *Table {
	t := &Table{Title: "Table III: image decoding latency breakdown (median)",
		Headers: []string{"Data", "Pipeline", "Time"}}
	for _, r := range rows {
		t.AddRow(r.DataKind, r.Pipeline, fsec(r.Seconds))
	}
	t.AddNote("expected shape: turbo < basic for batches; record+native pipelined pseudo-shuffle ≈ sequential; true-random tar access slowest")
	return t
}

// ConvergenceCurve is one optimizer's Fig. 9/10 series.
type ConvergenceCurve struct {
	Name      string
	TestAcc   []metrics.SeriesPoint
	LossCurve []metrics.SeriesPoint
	Duration  time.Duration
}

// RunFig9 reproduces Fig. 9: convergence (test accuracy per epoch, loss
// over time) of native fused optimizers vs Deep500 reference optimizers vs
// the custom AcceleGrad, all over the cf2go backend on a synthetic
// CIFAR-10-scale task with a scaled ResNet.
func RunFig9(ctx context.Context, o Options) ([]ConvergenceCurve, error) {
	epochs := 10
	nTrain, nTest := 2048, 512
	width := 0.25
	batch := 64
	if o.Quick {
		epochs, nTrain, nTest, width, batch = 2, 256, 64, 0.125, 32
	}
	cfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16,
		WithHead: true, BatchNorm: false, Seed: o.seed(), WidthScale: width}
	train, test := training.SyntheticSplit(nTrain, nTest, 10, []int{3, 16, 16}, 0.35, o.seed())

	optimizers := []struct {
		name string
		mk   func() training.ThreeStep
	}{
		{"GradDescent native", func() training.ThreeStep { return training.NewFusedSGD(0.05) }},
		{"Momentum native", func() training.ThreeStep { return training.NewFusedMomentum(0.02, 0.9) }},
		{"RmsProp native", func() training.ThreeStep { return training.NewFusedRMSProp(0.002, 0.9) }},
		{"AdaGrad native", func() training.ThreeStep { return training.NewFusedAdaGrad(0.02) }},
		{"Adam native", func() training.ThreeStep { return training.NewFusedAdam(0.002) }},
		{"Adam-Ref Deep500", func() training.ThreeStep { return training.NewAdam(0.002) }},
		{"GradDescent Deep500", func() training.ThreeStep { return training.NewGradientDescent(0.05) }},
		{"Momentum Deep500", func() training.ThreeStep { return training.NewMomentum(0.02, 0.9) }},
		{"AcceleGrad (custom)", func() training.ThreeStep { return training.NewAcceleGrad(0.02, 1, 1) }},
	}
	var out []ConvergenceCurve
	for _, opt := range optimizers {
		m := models.ResNet(8, cfg)
		e, err := frameworks.CF2Go.NewExecutor(m)
		if err != nil {
			return nil, err
		}
		e.OpOverhead = 0 // convergence experiment: timing dominated by math
		e.SetTraining(true)
		d := training.NewDriver(e, opt.mk())
		r := training.NewRunner(d,
			training.NewShuffleSampler(train, batch, o.seed()),
			training.NewSequentialSampler(test, batch))
		start := time.Now()
		if err := r.RunEpochs(ctx, epochs); err != nil {
			return nil, err
		}
		out = append(out, ConvergenceCurve{
			Name:      opt.name,
			TestAcc:   r.TestAcc.Points(),
			LossCurve: r.LossCurve.Points(),
			Duration:  time.Since(start),
		})
	}
	return out, nil
}

// RunFig10 reproduces Fig. 10: the Adam optimizer across two backends, each
// in native (fused) and Deep500-reference form.
func RunFig10(ctx context.Context, o Options) ([]ConvergenceCurve, error) {
	epochs := 8
	nTrain, nTest := 1024, 256
	batch := 64
	if o.Quick {
		epochs, nTrain, nTest, batch = 2, 256, 64, 32
	}
	cfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16,
		WithHead: true, Seed: o.seed(), WidthScale: 0.25}
	train, test := training.SyntheticSplit(nTrain, nTest, 10, []int{3, 16, 16}, 0.35, o.seed()+1)

	cases := []struct {
		name string
		prof frameworks.Profile
		mk   func() training.ThreeStep
	}{
		{"Adam TF (native)", frameworks.TFGo, func() training.ThreeStep { return training.NewFusedAdam(0.002) }},
		{"Adam TF Deep500", frameworks.TFGo, func() training.ThreeStep { return training.NewAdamVariant(0.002, training.AdamEpsInside) }},
		{"Adam CF2 (native)", frameworks.CF2Go, func() training.ThreeStep { return training.NewFusedAdam(0.002) }},
		{"Adam CF2 Deep500", frameworks.CF2Go, func() training.ThreeStep { return training.NewAdam(0.002) }},
	}
	var out []ConvergenceCurve
	for _, c := range cases {
		m := models.ResNet(8, cfg)
		prof := c.prof
		prof.OpOverhead /= 8
		e, err := prof.NewExecutor(m)
		if err != nil {
			return nil, err
		}
		e.SetTraining(true)
		d := training.NewDriver(e, c.mk())
		r := training.NewRunner(d,
			training.NewShuffleSampler(train, batch, o.seed()),
			training.NewSequentialSampler(test, batch))
		start := time.Now()
		if err := r.RunEpochs(ctx, epochs); err != nil {
			return nil, err
		}
		out = append(out, ConvergenceCurve{Name: c.name,
			TestAcc: r.TestAcc.Points(), LossCurve: r.LossCurve.Points(),
			Duration: time.Since(start)})
	}
	return out, nil
}

// RenderConvergence renders Fig. 9/10 curves as a table of epochs plus
// final stats.
func RenderConvergence(title string, curves []ConvergenceCurve) *Table {
	t := &Table{Title: title,
		Headers: []string{"Optimizer", "FinalTestAcc", "BestTestAcc", "FinalLoss", "Time"}}
	for _, c := range curves {
		finalAcc, bestAcc := 0.0, 0.0
		for _, p := range c.TestAcc {
			if p.Value > bestAcc {
				bestAcc = p.Value
			}
			finalAcc = p.Value
		}
		finalLoss := 0.0
		if len(c.LossCurve) > 0 {
			finalLoss = c.LossCurve[len(c.LossCurve)-1].Value
		}
		t.AddRow(c.Name, fpct(finalAcc), fpct(bestAcc),
			fmt.Sprintf("%.4f", finalLoss), fsec(c.Duration.Seconds()))
	}
	return t
}

// Fig11Point is one iteration of the Adam-divergence trajectory.
type Fig11Point struct {
	Iteration int
	TotalL2   float64
	TotalLInf float64
	PerLayer  map[string]float64 // layer → ℓ2 divergence
}

// RunFig11 reproduces Fig. 11: the ℓ2/ℓ∞ divergence between two Adam
// formulations (reference vs TF-style ε placement) training the same MLP
// from the same initialization on identical batches, per layer over
// iterations.
func RunFig11(ctx context.Context, o Options) ([]Fig11Point, error) {
	iters := 750
	if o.Quick {
		iters = 40
	}
	cfg := models.Config{Classes: 10, Channels: 1, Height: 16, Width: 16,
		WithHead: true, Seed: o.seed()}
	mk := func(v training.AdamVariant) (*executor.Executor, *training.Driver) {
		m := models.MLP(cfg, 128, 64)
		e := executor.MustNew(m)
		e.SetTraining(true)
		return e, training.NewDriver(e, training.NewAdamVariant(0.001, v))
	}
	e1, d1 := mk(training.AdamReference)
	e2, d2 := mk(training.AdamEpsInside)
	ds, _ := training.SyntheticSplit(1024, 64, 10, []int{1, 16, 16}, 0.3, o.seed())
	sampler := training.NewShuffleSampler(ds, 32, o.seed())

	var out []Fig11Point
	every := iters / 25
	if every < 1 {
		every = 1
	}
	for it := 1; it <= iters; it++ {
		b := sampler.Next()
		if b == nil {
			sampler.Reset()
			b = sampler.Next()
		}
		if _, err := d1.Train(ctx, b.Feeds()); err != nil {
			return nil, err
		}
		if _, err := d2.Train(ctx, b.Feeds()); err != nil {
			return nil, err
		}
		if it%every != 0 {
			continue
		}
		pt := Fig11Point{Iteration: it, PerLayer: map[string]float64{}}
		for _, name := range e1.Network().Params() {
			p1, _ := e1.Network().FetchTensor(name)
			p2, _ := e2.Network().FetchTensor(name)
			d := tensor.Compare(p2, p1)
			pt.PerLayer[name] = d.L2
			pt.TotalL2 += d.L2
			if d.LInf > pt.TotalLInf {
				pt.TotalLInf = d.LInf
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderFig11 renders divergence trajectories.
func RenderFig11(points []Fig11Point) *Table {
	t := &Table{Title: "Fig. 11: weight divergence between Adam formulations (reference vs ε-inside)",
		Headers: []string{"Iteration", "Σ l2", "max l∞"}}
	for _, p := range points {
		t.AddRow(strconv.Itoa(p.Iteration),
			fmt.Sprintf("%.5g", p.TotalL2), fmt.Sprintf("%.5g", p.TotalLInf))
	}
	t.AddNote("expected shape: divergence grows with iterations; fully connected weights diverge faster than biases")
	return t
}

// TempWorkDir creates a scratch directory for dataset experiments.
func TempWorkDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "deep500-bench-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
