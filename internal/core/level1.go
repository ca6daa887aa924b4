package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deep500/internal/executor"
	"deep500/internal/frameworks"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/tensor"
	"deep500/internal/training"
	"deep500/internal/transform"
)

// Fig7Cell is one (backend, variant) measurement of the micro-batching
// experiment.
type Fig7Cell struct {
	Backend     string
	Variant     string // "original" or "microbatched"
	OOM         bool
	TimeSeconds float64
	PeakBytes   int64
}

// Fig7Result is the outcome of the Level 1 micro-batching experiment.
type Fig7Result struct {
	Batch       int
	CapacityB   int64
	Transformed int
	Cells       []Fig7Cell
}

// RunFig7 reproduces §V-C / Fig. 7: AlexNet at a large minibatch OOMs on
// the torchgo backend (hungry allocator); the ILP micro-batching transform
// eliminates the OOM, while on tfgo the extra split/concat copies slow
// execution down. Model width and batch are scaled in quick mode; the
// device capacity is derived from the measured peak so the experiment is
// robust to scaling.
func RunFig7(ctx context.Context, o Options) (Fig7Result, error) {
	batch := 468 / 4 // scaled stand-in for the paper's 468
	width := 0.125
	if o.Quick {
		batch = 16
		width = 0.0625
	}
	cfg := models.Config{Classes: 100, Channels: 3, Height: 224, Width: 224,
		Seed: o.seed(), WidthScale: width}
	if o.Quick {
		cfg.Height, cfg.Width = 64, 64
	}
	// Dry run with unlimited memory to find the peak requirement.
	probe, err := frameworks.TorchGo.NewExecutor(models.AlexNet(cfg))
	if err != nil {
		return Fig7Result{}, err
	}
	probe.Memory = executor.NewMemoryModel(0)
	probe.OpOverhead = 0
	rng := tensor.NewRNG(o.seed())
	x := tensor.RandNormal(rng, 0, 1, batch, cfg.Channels, cfg.Height, cfg.Width)
	feeds := map[string]*tensor.Tensor{"x": x}
	if _, err := probe.Inference(ctx, feeds); err != nil {
		return Fig7Result{}, err
	}
	peak := probe.Memory.Peak()
	// capacity between tfgo's need (×1.10) and torchgo's (×1.30)
	capacity := int64(float64(peak) * 1.18)

	res := Fig7Result{Batch: batch, CapacityB: capacity}
	for _, prof := range []frameworks.Profile{frameworks.TorchGo, frameworks.TFGo} {
		prof.MemoryCapacity = capacity
		prof.OpOverhead = prof.OpOverhead / 4 // keep runtime reasonable

		for _, variant := range []string{"original", "microbatched"} {
			m := models.AlexNet(cfg)
			transform.StripDropout(m)
			if variant == "microbatched" {
				budget := capacity / 4
				n, err := transform.MicrobatchModel(m, batch, budget, nil)
				if err != nil {
					return res, err
				}
				if res.Transformed == 0 {
					res.Transformed = n
				}
			}
			e, err := prof.NewExecutor(m)
			if err != nil {
				return res, err
			}
			cell := Fig7Cell{Backend: prof.Name, Variant: variant}
			// warmup pass (also detects OOM), then the timed pass
			_, err = e.Inference(ctx, feeds)
			var oom *executor.OOMError
			switch {
			case errors.As(err, &oom):
				cell.OOM = true
				cell.PeakBytes = e.Memory.Peak()
			case err != nil:
				return res, err
			default:
				start := time.Now()
				if _, err := e.Inference(ctx, feeds); err != nil {
					return res, err
				}
				cell.TimeSeconds = time.Since(start).Seconds()
				cell.PeakBytes = e.Memory.Peak()
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// RenderFig7 renders the micro-batching outcome.
func RenderFig7(r Fig7Result) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 7 / §V-C: micro-batch transformation (AlexNet, B=%d, device=%s)",
		r.Batch, fbytes(r.CapacityB)),
		Headers: []string{"Backend", "Variant", "Result", "Time", "PeakMem"}}
	for _, c := range r.Cells {
		result := "ok"
		timeStr := fsec(c.TimeSeconds)
		if c.OOM {
			result = "OOM"
			timeStr = "-"
		}
		t.AddRow(c.Backend, c.Variant, result, timeStr, fbytes(c.PeakBytes))
	}
	t.AddNote(fmt.Sprintf("%d conv nodes micro-batched by ILP", r.Transformed))
	t.AddNote("expected shape: torchgo original OOMs, microbatched runs; tfgo runs both but is slower microbatched (split/concat copies)")
	return t
}

// OverheadResult is the Level 2 instrumentation-overhead measurement.
type OverheadResult struct {
	NativeEpoch       metrics.Distribution
	InstrumentedEpoch metrics.Distribution
	OverheadFraction  float64
}

// overheadSetup is the §V-D workload: an MLP classifier and its seeded
// training set.
type overheadSetup struct {
	cfg    models.Config
	hidden int
	train  *training.InMemoryDataset
	seed   uint64
}

func newOverheadSetup(o Options) overheadSetup {
	cfg := models.Config{Classes: 10, Channels: 1, Height: 16, Width: 16,
		WithHead: true, Seed: o.seed()}
	hidden, n := 256, 2048
	if o.Quick {
		// enough steps per epoch that the median is stable at ms scale
		hidden, n = 64, 1024
	}
	ds, _ := training.SyntheticSplit(n, 64, 10, []int{1, cfg.Height, cfg.Width}, 0.3, o.seed())
	return overheadSetup{cfg: cfg, hidden: hidden, train: ds, seed: o.seed()}
}

// runner builds one of the experiment's two training loops: native when
// events is nil, otherwise instrumented with events on every pass and the
// training-accuracy and loss series recorded.
func (s overheadSetup) runner(events *executor.Events) *training.Runner {
	e := executor.MustNew(models.MLP(s.cfg, s.hidden))
	e.SetTraining(true)
	e.Events = events
	d := training.NewDriver(e, training.NewFusedMomentum(0.05, 0.9))
	r := training.NewRunner(d, training.NewShuffleSampler(s.train, 64, s.seed), nil)
	if events == nil {
		r.TrainingAcc = nil
		r.LossCurve = nil
	}
	return r
}

// RunOverhead reproduces the §V-D "Optimization Overhead" experiment: epoch
// time of a native training loop vs the same loop under full Deep500
// instrumentation (events + metrics). The paper reports <1% overhead.
func RunOverhead(ctx context.Context, o Options) (OverheadResult, error) {
	epochs := o.reruns()
	if o.Quick {
		epochs = 8
	}
	s := newOverheadSetup(o)
	native, inst := s.runner(nil), s.runner(metrics.NewFrameworkOverhead().Events())
	// Warm both configurations, then interleave epoch measurements so both
	// see identical cache/allocator/GC conditions (paired methodology, as
	// in the Level 0 experiment).
	if _, err := native.EpochTime(ctx); err != nil {
		return OverheadResult{}, err
	}
	if _, err := inst.EpochTime(ctx); err != nil {
		return OverheadResult{}, err
	}
	nativeT := metrics.NewSampler("native epoch", "s")
	instT := metrics.NewSampler("instrumented epoch", "s")
	for ep := 0; ep < epochs; ep++ {
		dn, err := native.EpochTime(ctx)
		if err != nil {
			return OverheadResult{}, err
		}
		nativeT.Record(dn.Seconds())
		di, err := inst.EpochTime(ctx)
		if err != nil {
			return OverheadResult{}, err
		}
		instT.Record(di.Seconds())
	}
	res := OverheadResult{NativeEpoch: nativeT.Distribution(), InstrumentedEpoch: instT.Distribution()}
	if res.NativeEpoch.Median > 0 {
		res.OverheadFraction = (res.InstrumentedEpoch.Median - res.NativeEpoch.Median) / res.NativeEpoch.Median
	}
	return res, nil
}

// RenderOverhead renders the instrumentation-overhead outcome.
func RenderOverhead(r OverheadResult) *Table {
	t := &Table{Title: "§V-D: Deep500 instrumentation overhead per training epoch",
		Headers: []string{"Configuration", "Median epoch", "CI95"}}
	t.AddRow("native", fsec(r.NativeEpoch.Median),
		fmt.Sprintf("[%s, %s]", fsec(r.NativeEpoch.CI95Low), fsec(r.NativeEpoch.CI95High)))
	t.AddRow("deep500-instrumented", fsec(r.InstrumentedEpoch.Median),
		fmt.Sprintf("[%s, %s]", fsec(r.InstrumentedEpoch.CI95Low), fsec(r.InstrumentedEpoch.CI95High)))
	t.AddNote(fmt.Sprintf("measured overhead: %s (paper: <1%%)", fpct(r.OverheadFraction)))
	return t
}
