package core

import (
	"fmt"
	"io"
	"time"

	"deep500/internal/bench"
	"deep500/internal/kernels"
	"deep500/internal/metrics"
)

// RegisterExperiments registers every paper experiment into the suite,
// with o captured. Each experiment renders its table(s) to the context's
// human writer and emits bench.Records into the machine-readable report —
// the registry replaces the hardcoded id switch that used to live in
// cmd/d500bench/main.go.
func RegisterExperiments(s *bench.Suite, o Options) {
	s.Register(bench.Definition{ID: "tables", Title: "Tables I & II: systems and benchmark surveys",
		Run: func(c *bench.Context) error { return runTables(c) }})
	s.Register(bench.Definition{ID: "fig2", Title: "Fig. 2: compute nodes in distributed DL over time",
		Run: func(c *bench.Context) error { return runFig2Exp(c) }})
	s.Register(bench.Definition{ID: "fig6conv", Title: "Fig. 6a: convolution performance",
		Run: func(c *bench.Context) error { return runFig6Exp(c, o, "conv") }})
	s.Register(bench.Definition{ID: "fig6gemm", Title: "Fig. 6b: GEMM performance",
		Run: func(c *bench.Context) error { return runFig6Exp(c, o, "gemm") }})
	s.Register(bench.Definition{ID: "fig6acc", Title: "§V-B: operator correctness vs fp32 reference",
		Run: func(c *bench.Context) error { return runFig6AccExp(c, o) }})
	s.Register(bench.Definition{ID: "fig7", Title: "Fig. 7 / §V-C: micro-batch transformation",
		Run: func(c *bench.Context) error { return runFig7Exp(c, o) }})
	s.Register(bench.Definition{ID: "overhead", Title: "§V-D: instrumentation overhead",
		Run: func(c *bench.Context) error { return runOverheadExp(c, o) }})
	s.Register(bench.Definition{ID: "fig8", Title: "Fig. 8: minibatch loading latency",
		Run: func(c *bench.Context) error { return runFig8Exp(c, o) }})
	s.Register(bench.Definition{ID: "table3", Title: "Table III: image decoding latency",
		Run: func(c *bench.Context) error { return runTable3Exp(c, o) }})
	s.Register(bench.Definition{ID: "fig9", Title: "Fig. 9: optimizer convergence",
		Run: func(c *bench.Context) error {
			return runConvergenceExp(c, "Fig. 9: optimizer convergence (ResNet-8 scaled, synthetic CIFAR-10)", func() ([]ConvergenceCurve, error) { return RunFig9(c.Ctx, o) })
		}})
	s.Register(bench.Definition{ID: "fig10", Title: "Fig. 10: Adam across backends",
		Run: func(c *bench.Context) error {
			return runConvergenceExp(c, "Fig. 10: Adam across backends, native vs Deep500 reference", func() ([]ConvergenceCurve, error) { return RunFig10(c.Ctx, o) })
		}})
	s.Register(bench.Definition{ID: "fig11", Title: "Fig. 11: Adam formulation divergence",
		Run: func(c *bench.Context) error { return runFig11Exp(c, o) }})
	s.Register(bench.Definition{ID: "fig12strong", Title: "Fig. 12 (left): strong scaling",
		Run: func(c *bench.Context) error {
			rows, err := RunFig12Strong(o)
			if err != nil {
				return err
			}
			return recordFig12(c, "Fig. 12 (left): strong scaling, ResNet-50, global B=1024", rows)
		}})
	s.Register(bench.Definition{ID: "fig12weak", Title: "Fig. 12 (right): weak scaling",
		Run: func(c *bench.Context) error {
			rows, err := RunFig12Weak(o)
			if err != nil {
				return err
			}
			return recordFig12(c, "Fig. 12 (right): weak scaling, ResNet-50", rows)
		}})
	s.Register(bench.Definition{ID: "validate", Title: "Validation suite (paper §III-E / §IV)",
		Run: func(c *bench.Context) error { return runValidateExp(c, o) }})
}

// recordDist exports a timing distribution as one record.
func recordDist(c *bench.Context, name, unit string, better bench.Direction, d metrics.Distribution, warmup int) *bench.Record {
	r := c.RecordSamples(name, unit, better, d.Samples)
	r.Warmup = warmup
	return r
}

func runTables(c *bench.Context) error {
	t1, t2 := RenderTableI(), RenderTableII()
	t1.Render(c.Out)
	t2.Render(c.Out)

	// Deterministic coverage metrics: pinned against accidental survey edits.
	c.RecordValue("tableI/systems", "rows", bench.HigherIsBetter, float64(len(TableI)))
	c.RecordValue("tableII/benchmarks", "rows", bench.HigherIsBetter, float64(len(TableII)))
	deep500Caps := 0
	for _, col := range TableIColumns {
		if TableI[len(TableI)-1].Caps[col] == Full {
			deep500Caps++
		}
	}
	c.RecordValue("tableI/deep500-capabilities", "cols", bench.HigherIsBetter, float64(deep500Caps))
	deep500Bench := 0
	for _, col := range TableIIColumns {
		if TableII[len(TableII)-1].Caps[col] == Full {
			deep500Bench++
		}
	}
	c.RecordValue("tableII/deep500-capabilities", "cols", bench.HigherIsBetter, float64(deep500Bench))

	// Report-pipeline latency: rendering both survey tables.
	samples, warmup := timeLoop(8, 2, 25, func() {
		t1.Render(io.Discard)
		t2.Render(io.Discard)
	})
	recordDist(c, "render/tables", "s", bench.LowerIsBetter, samples, warmup)
	return nil
}

// timeLoop measures f averaged over iters per sample, discarding warmup
// leading samples, and returns the retained distribution.
func timeLoop(samples, warmup, iters int, f func()) (metrics.Distribution, int) {
	s := metrics.NewSampler("t", "s")
	for k := 0; k < warmup+samples; k++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if k >= warmup {
			s.Record(time.Since(start).Seconds() / float64(iters))
		}
	}
	return s.Distribution(), warmup
}

func runFig2Exp(c *bench.Context) error {
	RenderFig2().Render(c.Out)
	for _, p := range Fig2Survey {
		c.RecordValue("nodes-median/"+p.Period, "nodes", bench.ReportOnly, p.Med)
	}
	return nil
}

func runFig6Exp(c *bench.Context, o Options, kind string) error {
	var res Fig6Result
	var err error
	var work int64
	if kind == "conv" {
		res, err = RunFig6Conv(c.Ctx, o)
		if err != nil {
			return err
		}
		p := DeepBenchConv(o.Quick)[0]
		work = kernels.ConvShape{N: p.N, C: p.C, H: p.H, W: p.W, M: p.M,
			KH: p.K, KW: p.K, StrideH: p.Stride, StrideW: p.Stride, PadH: p.Pad, PadW: p.Pad}.FLOPs()
	} else {
		res, err = RunFig6Gemm(c.Ctx, o)
		if err != nil {
			return err
		}
		p := DeepBenchGemm(o.Quick)[0]
		work = kernels.GemmFLOPs(p.M, p.K, p.N)
	}
	RenderFig6(res).Render(c.Out)
	for _, r := range res.All {
		recordDist(c, "all/"+r.Backend+"/"+r.Mode, "s", bench.LowerIsBetter, r.Summary, 1)
	}
	for _, r := range res.Spotlight {
		rec := recordDist(c, "spotlight/"+r.Backend+"/"+r.Mode, "s", bench.LowerIsBetter, r.Summary, 1)
		rec.Work = work
		rec.Finalize()
	}
	return nil
}

func runFig6AccExp(c *bench.Context, o Options) error {
	rows := RunFig6Accuracy(o)
	t := &Table{Title: "§V-B: operator correctness vs fp32 direct reference",
		Headers: []string{"Algorithm(backend)", "Median l-inf"}}
	for _, r := range rows {
		t.AddRow(r.Backend, fmt.Sprintf("%.3g", r.MedianLInf))
		c.RecordValue("linf/"+r.Backend, "linf", bench.LowerIsBetter, r.MedianLInf)
	}
	t.AddNote("paper reports ≈7e-4 median l-inf between Deep500 and frameworks")
	t.Render(c.Out)
	return nil
}

func runFig7Exp(c *bench.Context, o Options) error {
	res, err := RunFig7(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderFig7(res).Render(c.Out)
	for _, cell := range res.Cells {
		key := cell.Backend + "/" + cell.Variant
		oom := 0.0
		if cell.OOM {
			oom = 1
		}
		// OOM-or-not is the experiment's expected *shape* (torchgo original
		// must OOM), validated by tests — recorded, never pinned.
		c.RecordValue(key+"/oom", "bool", bench.ReportOnly, oom)
		c.RecordValue(key+"/peak-mem", "B", bench.LowerIsBetter, float64(cell.PeakBytes))
		if !cell.OOM {
			c.RecordValue(key+"/time", "s", bench.LowerIsBetter, cell.TimeSeconds)
		}
	}
	c.RecordValue("microbatched-nodes", "nodes", bench.ReportOnly, float64(res.Transformed))
	return nil
}

func runOverheadExp(c *bench.Context, o Options) error {
	res, err := RunOverhead(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderOverhead(res).Render(c.Out)
	recordDist(c, "epoch/native", "s", bench.LowerIsBetter, res.NativeEpoch, 1)
	recordDist(c, "epoch/instrumented", "s", bench.LowerIsBetter, res.InstrumentedEpoch, 1)
	// The fraction of two noisy medians follows the host: never pinned.
	c.RecordValue("overhead-fraction", "ratio", bench.ReportOnly, res.OverheadFraction)
	return nil
}

func runFig8Exp(c *bench.Context, o Options) error {
	dir, cleanup, err := TempWorkDir()
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := RunFig8(o, dir)
	if err != nil {
		return err
	}
	RenderFig8(res).Render(c.Out)
	for _, rows := range [][]Fig8Row{res.Small, res.Large} {
		for _, r := range rows {
			recordDist(c, r.Dataset+"/"+r.Generator, "s", bench.LowerIsBetter, r.Summary, 0)
		}
	}
	return nil
}

func runTable3Exp(c *bench.Context, o Options) error {
	dir, cleanup, err := TempWorkDir()
	if err != nil {
		return err
	}
	defer cleanup()
	rows, err := RunTable3(o, dir)
	if err != nil {
		return err
	}
	RenderTable3(rows).Render(c.Out)
	for _, r := range rows {
		c.RecordValue(r.Pipeline+"/"+r.DataKind, "s", bench.LowerIsBetter, r.Seconds)
	}
	return nil
}

func runConvergenceExp(c *bench.Context, title string, run func() ([]ConvergenceCurve, error)) error {
	curves, err := run()
	if err != nil {
		return err
	}
	RenderConvergence(title, curves).Render(c.Out)
	for _, cv := range curves {
		finalAcc, bestAcc := 0.0, 0.0
		for _, p := range cv.TestAcc {
			if p.Value > bestAcc {
				bestAcc = p.Value
			}
			finalAcc = p.Value
		}
		c.RecordValue(cv.Name+"/final-acc", "frac", bench.HigherIsBetter, finalAcc)
		c.RecordValue(cv.Name+"/best-acc", "frac", bench.HigherIsBetter, bestAcc)
		if n := len(cv.LossCurve); n > 0 {
			c.RecordValue(cv.Name+"/final-loss", "loss", bench.LowerIsBetter, cv.LossCurve[n-1].Value)
		}
		c.RecordValue(cv.Name+"/time", "s", bench.ReportOnly, cv.Duration.Seconds())
	}
	return nil
}

func runFig11Exp(c *bench.Context, o Options) error {
	points, err := RunFig11(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderFig11(points).Render(c.Out)
	if n := len(points); n > 0 {
		c.RecordValue("final-l2", "l2", bench.ReportOnly, points[n-1].TotalL2)
		c.RecordValue("final-linf", "linf", bench.ReportOnly, points[n-1].TotalLInf)
	}
	return nil
}

func recordFig12(c *bench.Context, title string, rows []Fig12Row) error {
	RenderFig12(title, rows).Render(c.Out)
	for _, r := range rows {
		key := fmt.Sprintf("%s/%dnodes", r.Scheme, r.Nodes)
		if r.Failed != "" {
			c.RecordValue(key+"/failed", "bool", bench.ReportOnly, 1)
			continue
		}
		// Virtual-clock throughput is deterministic for the ring/doubling
		// schemes; the async parameter server depends on message arrival
		// order, so it is recorded but not pinned.
		dir := bench.HigherIsBetter
		if r.Scheme == "REF-asgd" {
			dir = bench.ReportOnly
		}
		c.RecordValue(key+"/throughput", "img/s", dir, r.Throughput)
		c.RecordValue(key+"/sent-per-node", "GB", bench.LowerIsBetter, r.PerNodeGB)
	}
	c.Note(SimClockNote)
	return nil
}

func runValidateExp(c *bench.Context, o Options) error {
	results, err := RunValidationSuite(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.Out, "\n== validation suite (paper §III-E / §IV) ==")
	failed := 0
	for _, r := range results {
		fmt.Fprintln(c.Out, " ", r)
		if !r.Passed {
			failed++
		}
	}
	c.RecordValue("checks-passed", "checks", bench.HigherIsBetter, float64(len(results)-failed))
	c.RecordValue("checks-total", "checks", bench.HigherIsBetter, float64(len(results)))
	if failed > 0 {
		return fmt.Errorf("%d validation checks failed", failed)
	}
	return nil
}
