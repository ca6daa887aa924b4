package core

import (
	"context"
	"fmt"
	"time"

	"deep500/internal/frameworks"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/metrics"
	"deep500/internal/tensor"
)

// Options configure experiment runs.
type Options struct {
	// Quick shrinks problem sizes and repetition counts so the full suite
	// runs in seconds (used by tests); the default reproduces paper-scale
	// measurement methodology (30 reruns, median + nonparametric CI).
	Quick bool
	// Seed drives all generators.
	Seed uint64
}

// measureIters is how many back-to-back invocations one timing sample
// averages over, suppressing scheduler and allocator jitter on small
// problems.
const measureIters = 4

func (o Options) reruns() int {
	if o.Quick {
		return 5
	}
	return metrics.DefaultReruns
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 500
	}
	return o.Seed
}

// convModel wraps a single Conv node into a model for a framework backend.
func convModel(p ConvProblem, seed uint64) *graph.Model {
	m := graph.NewModel("conv-bench")
	rng := tensor.NewRNG(seed)
	m.AddInput("x", -1, p.C, p.H, p.W)
	m.AddInitializer("w", tensor.HeInit(rng, p.C*p.K*p.K, p.M, p.C, p.K, p.K))
	m.AddNode(graph.NewNode("Conv", "conv", []string{"x", "w"}, []string{"y"},
		graph.IntsAttr("strides", int64(p.Stride), int64(p.Stride)),
		graph.IntsAttr("pads", int64(p.Pad), int64(p.Pad)),
		graph.IntsAttr("kernel_shape", int64(p.K), int64(p.K))))
	m.AddOutput("y")
	return m
}

func gemmModel(p GemmProblem, seed uint64) *graph.Model {
	m := graph.NewModel("gemm-bench")
	rng := tensor.NewRNG(seed)
	m.AddInput("x", -1, p.K)
	m.AddInitializer("w", tensor.XavierInit(rng, p.K, p.N, p.K, p.N))
	m.AddNode(graph.NewNode("MatMul", "mm", []string{"x", "w"}, []string{"y"}))
	m.AddOutput("y")
	return m
}

// Fig6Row is one measurement series of the Level 0 experiment. Summary
// retains the raw samples so the row can be exported into the
// machine-readable benchmark schema (internal/bench).
type Fig6Row struct {
	Backend string
	Mode    string // "native" or "deep500"
	Summary metrics.Distribution
}

// Fig6Result holds the operator-benchmark outcome.
type Fig6Result struct {
	Kind      string // "conv" or "gemm"
	All       []Fig6Row
	Spotlight []Fig6Row
}

// RunFig6Conv reproduces Fig. 6a: convolution runtime across backends with
// the DeepBench bare-kernel baseline, measured both natively and under
// Deep500 instrumentation.
func RunFig6Conv(ctx context.Context, o Options) (Fig6Result, error) {
	return runFig6(ctx, "conv", DeepBenchConv(o.Quick), nil, o)
}

// RunFig6Gemm reproduces Fig. 6b: matrix-multiplication runtime.
func RunFig6Gemm(ctx context.Context, o Options) (Fig6Result, error) {
	return runFig6(ctx, "gemm", nil, DeepBenchGemm(o.Quick), o)
}

func runFig6(ctx context.Context, kind string, convs []ConvProblem, gemms []GemmProblem, o Options) (Fig6Result, error) {
	res := Fig6Result{Kind: kind}
	reruns := o.reruns()
	backends := frameworks.All()

	nProblems := len(convs) + len(gemms)
	for _, p := range backends {
		modes := []string{"native", "deep500"}
		if p.Name == "deepbench" {
			modes = modes[:1] // the baseline is by definition uninstrumented
		}
		all := make(map[string]*metrics.Sampler, len(modes))
		spot := make(map[string]*metrics.Sampler, len(modes))
		for _, mode := range modes {
			all[mode] = metrics.NewSampler(p.Name+"/"+mode, "s")
			spot[mode] = metrics.NewSampler(p.Name+"/"+mode, "s")
		}
		for pi := 0; pi < nProblems; pi++ {
			runners := make(map[string]func() (float64, error), len(modes))
			for _, mode := range modes {
				var err error
				if kind == "conv" {
					runners[mode], err = convRunner(ctx, convs[pi], p, mode == "deep500", o)
				} else {
					runners[mode], err = gemmRunner(ctx, gemms[pi], p, mode == "deep500", o)
				}
				if err != nil {
					return res, err
				}
				if _, err := runners[mode](); err != nil { // warmup
					return res, err
				}
			}
			// Interleave native and instrumented samples so both modes see
			// the same allocator/GC conditions (pairwise methodology).
			for r := 0; r < reruns; r++ {
				for _, mode := range modes {
					v, err := runners[mode]()
					if err != nil {
						return res, err
					}
					if pi == 0 {
						spot[mode].Record(v)
					} else {
						all[mode].Record(v)
					}
				}
			}
		}
		for _, mode := range modes {
			res.All = append(res.All, Fig6Row{Backend: p.Name, Mode: mode, Summary: all[mode].Distribution()})
			res.Spotlight = append(res.Spotlight, Fig6Row{Backend: p.Name, Mode: mode, Summary: spot[mode].Distribution()})
		}
	}
	return res, nil
}

// convRunner builds a measurement closure for one conv problem on one
// backend. The DeepBench profile calls the kernel directly with no graph.
func convRunner(ctx context.Context, p ConvProblem, prof frameworks.Profile, instrumented bool, o Options) (func() (float64, error), error) {
	rng := tensor.NewRNG(o.seed())
	if prof.Name == "deepbench" {
		s := kernels.ConvShape{N: p.N, C: p.C, H: p.H, W: p.W, M: p.M,
			KH: p.K, KW: p.K, StrideH: p.Stride, StrideW: p.Stride, PadH: p.Pad, PadW: p.Pad}
		in := tensor.RandNormal(rng, 0, 1, p.N, p.C, p.H, p.W)
		w := tensor.RandNormal(rng, 0, 0.2, p.M, p.C, p.K, p.K)
		out := make([]float32, s.OutputSize())
		return func() (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			start := time.Now()
			for i := 0; i < measureIters; i++ {
				kernels.Conv2D(kernels.ConvIm2Col, s, in.Data(), w.Data(), nil, out)
			}
			return time.Since(start).Seconds() / measureIters, nil
		}, nil
	}
	prof.MemoryCapacity = 0 // benchmarking, not OOM testing
	e, err := prof.NewExecutor(convModel(p, o.seed()))
	if err != nil {
		return nil, err
	}
	if instrumented {
		fo := metrics.NewFrameworkOverhead()
		e.Events = fo.Events()
	}
	x := tensor.RandNormal(rng, 0, 1, p.N, p.C, p.H, p.W)
	feeds := map[string]*tensor.Tensor{"x": x}
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < measureIters; i++ {
			if _, err := e.Inference(ctx, feeds); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() / measureIters, nil
	}, nil
}

func gemmRunner(ctx context.Context, p GemmProblem, prof frameworks.Profile, instrumented bool, o Options) (func() (float64, error), error) {
	rng := tensor.NewRNG(o.seed())
	if prof.Name == "deepbench" {
		a := tensor.RandNormal(rng, 0, 1, p.M, p.K)
		b := tensor.RandNormal(rng, 0, 1, p.K, p.N)
		c := make([]float32, p.M*p.N)
		return func() (float64, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			start := time.Now()
			for i := 0; i < measureIters; i++ {
				kernels.Gemm(a.Data(), b.Data(), c, p.M, p.K, p.N)
			}
			return time.Since(start).Seconds() / measureIters, nil
		}, nil
	}
	prof.MemoryCapacity = 0
	e, err := prof.NewExecutor(gemmModel(p, o.seed()))
	if err != nil {
		return nil, err
	}
	if instrumented {
		fo := metrics.NewFrameworkOverhead()
		e.Events = fo.Events()
	}
	x := tensor.RandNormal(rng, 0, 1, p.M, p.K)
	feeds := map[string]*tensor.Tensor{"x": x}
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < measureIters; i++ {
			if _, err := e.Inference(ctx, feeds); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() / measureIters, nil
	}, nil
}

// Fig6AccRow is one backend's accuracy-vs-reference measurement.
type Fig6AccRow struct {
	Backend    string
	MedianLInf float64
}

// RunFig6Accuracy reproduces the §V-B correctness check: the median ℓ∞
// difference between each backend's convolution outputs and the fp32
// direct-convolution reference across the problem set (the paper reports
// ≈7·10⁻⁴ against its frameworks).
func RunFig6Accuracy(o Options) []Fig6AccRow {
	problems := DeepBenchConv(o.Quick)
	var rows []Fig6AccRow
	for _, algo := range []struct {
		name string
		a    kernels.ConvAlgo
	}{{"im2col(tfgo/cf2go)", kernels.ConvIm2Col}, {"winograd(torchgo)", kernels.ConvWinograd}} {
		diffs := metrics.NewSampler(algo.name, "linf")
		for _, p := range problems {
			s := kernels.ConvShape{N: p.N, C: p.C, H: p.H, W: p.W, M: p.M,
				KH: p.K, KW: p.K, StrideH: p.Stride, StrideW: p.Stride, PadH: p.Pad, PadW: p.Pad}
			rng := tensor.NewRNG(o.seed() + uint64(p.C))
			in := tensor.RandNormal(rng, 0, 1, s.InputSize())
			w := tensor.RandNormal(rng, 0, 0.2, s.WeightSize())
			ref := make([]float32, s.OutputSize())
			got := make([]float32, s.OutputSize())
			kernels.Conv2D(kernels.ConvDirect, s, in.Data(), w.Data(), nil, ref)
			a := algo.a
			if a == kernels.ConvWinograd && !s.SupportsWinograd() {
				a = kernels.ConvIm2Col
			}
			kernels.Conv2D(a, s, in.Data(), w.Data(), nil, got)
			var linf float64
			for i := range got {
				d := float64(got[i]) - float64(ref[i])
				if d < 0 {
					d = -d
				}
				if d > linf {
					linf = d
				}
			}
			diffs.Record(linf)
		}
		rows = append(rows, Fig6AccRow{Backend: algo.name, MedianLInf: diffs.Summarize().Median})
	}
	return rows
}

// RenderFig6 renders a Fig6Result.
func RenderFig6(res Fig6Result) *Table {
	title := "Fig. 6a: convolution performance (all kernels + spotlight)"
	spotDesc := "N=16 C=3 H=W=224 K=3x3"
	if res.Kind == "gemm" {
		title = "Fig. 6b: GEMM performance (all kernels + spotlight)"
		spotDesc = "M=K=2560 N=64"
	}
	t := &Table{Title: title,
		Headers: []string{"Backend", "Mode", "Median(all)", "CI95(all)", "Median(spotlight)"}}
	spotIdx := map[string]metrics.Distribution{}
	for _, r := range res.Spotlight {
		spotIdx[r.Backend+"/"+r.Mode] = r.Summary
	}
	for _, r := range res.All {
		spot := spotIdx[r.Backend+"/"+r.Mode]
		t.AddRow(r.Backend, r.Mode, fsec(r.Summary.Median),
			fmt.Sprintf("[%s, %s]", fsec(r.Summary.CI95Low), fsec(r.Summary.CI95High)),
			fsec(spot.Median))
	}
	t.AddNote("spotlight shape: " + spotDesc + " (scaled in -quick mode)")
	t.AddNote("expected shape: deepbench fastest; tfgo slowest framework; deep500 mode within CI of native")
	return t
}
