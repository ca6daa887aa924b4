package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deep500/internal/bench"
	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/training"
	"deep500/internal/transport"
)

// This file implements the "dist" suite experiment: data-parallel DSGD
// over the real TCP transport on loopback, measured at 1, 2 and 4 workers.
// It is the networked counterpart of the fig12 scaling experiments — those
// run on the virtual α-β clock of the simulator, this one pays for real
// sockets, framing and goroutine scheduling. Step counts, per-step wire
// bytes and the final loss are deterministic and gate (the TCP ring
// reproduces the simulator ring's chunk schedule bitwise); wall-clock
// step time and scaling efficiency follow the machine and self-demote.

// DistBenchRow is one world size's measurement.
type DistBenchRow struct {
	Workers      int
	Steps        int       // per-worker steps taken (deterministic)
	FinalLoss    float64   // rank 0's last-step loss (deterministic)
	BytesPerStep float64   // rank 0 sent bytes / steps (deterministic)
	StepTimes    []float64 // per-step wall-clock seconds on rank 0
	Efficiency   float64   // t(1 worker) / t(n workers), filled by caller
}

// distBenchParams scales the experiment.
func distBenchParams(quick bool) (steps, batch, hidden int) {
	if quick {
		return 6, 8, 16
	}
	return 24, 16, 32
}

// RunDistBench trains the same model at each world size over loopback TCP
// with allreduce-averaged DSGD (the per-worker batch is fixed, weak
// scaling). Every worker runs the identical loop the job control plane's
// ranks run; rank 0's counters provide the wire-volume record.
func RunDistBench(ctx context.Context, o Options) ([]DistBenchRow, error) {
	steps, batch, hidden := distBenchParams(o.Quick)
	var rows []DistBenchRow
	for _, workers := range []int{1, 2, 4} {
		row, err := runDistWorld(ctx, o, workers, steps, batch, hidden)
		if err != nil {
			return nil, fmt.Errorf("dist: %d workers: %w", workers, err)
		}
		rows = append(rows, row)
	}
	base := percentileOf(rows[0].StepTimes, 0.5)
	for i := range rows {
		if t := percentileOf(rows[i].StepTimes, 0.5); t > 0 {
			rows[i].Efficiency = base / t
		}
	}
	return rows, nil
}

func runDistWorld(ctx context.Context, o Options, workers, steps, batch, hidden int) (DistBenchRow, error) {
	ds := training.SyntheticClassification(workers*batch*steps, 4, []int{1, 8, 8}, 0.25, o.seed())
	ranks, err := transport.NewLocalWorld(workers, nil)
	if err != nil {
		return DistBenchRow{}, err
	}
	defer func() {
		for _, r := range ranks {
			r.Close()
		}
	}()

	execOpts := o.execOpts()

	losses := make([]float64, workers)
	times := make([][]float64, workers)
	// train is rank i's loop.
	train := func(i int, r *transport.TCPRank) error {
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8,
			WithHead: true, Seed: o.seed()}, hidden)
		e, err := executor.New(m, execOpts...)
		if err != nil {
			return err
		}
		e.SetTraining(true)
		d := training.NewDriver(e, training.NewFusedSGD(0.05))
		opt := dist.NewConsistentDecentralized(d, r, mpi.AllreduceRing)
		sampler := dist.NewDistributedSampler(ds, batch, i, workers, o.seed())
		for s := 0; s < steps; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			b := sampler.Next()
			if b == nil {
				sampler.Reset()
				b = sampler.Next()
			}
			t0 := time.Now()
			out, err := opt.Train(ctx, b.Feeds())
			if err != nil {
				return err
			}
			times[i] = append(times[i], time.Since(t0).Seconds())
			if loss, ok := out["loss"]; ok && loss.Size() > 0 {
				losses[i] = float64(loss.Data()[0])
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *transport.TCPRank) {
			defer wg.Done()
			errs[i] = train(i, r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return DistBenchRow{}, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	st := ranks[0].Stats()
	return DistBenchRow{
		Workers:      workers,
		Steps:        steps,
		FinalLoss:    losses[0],
		BytesPerStep: float64(st.SentBytes) / float64(steps),
		StepTimes:    times[0],
	}, nil
}

// RenderDistBench renders the scaling rows.
func RenderDistBench(rows []DistBenchRow) *Table {
	t := &Table{Title: "Distributed: DSGD over TCP loopback, ring allreduce (weak scaling, fixed per-worker batch)",
		Headers: []string{"Workers", "Steps", "Final loss", "Wire/step (rank 0)", "Median step", "Efficiency"}}
	for _, r := range rows {
		t.AddRow(itoa(int64(r.Workers)), itoa(int64(r.Steps)),
			fmt.Sprintf("%.4f", r.FinalLoss),
			fmtBytes(r.BytesPerStep),
			fsec(percentileOf(r.StepTimes, 0.5)),
			fmt.Sprintf("%.2f", r.Efficiency))
	}
	t.AddNote("real sockets and framing; the TCP ring reproduces the simulator ring's chunk schedule bitwise")
	t.AddNote("steps, wire volume and loss are deterministic and gate; step time and efficiency follow the machine")
	return t
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}

func runDistExp(c *bench.Context, o Options) error {
	rows, err := RunDistBench(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderDistBench(rows).Render(c.Out)
	for _, r := range rows {
		key := fmt.Sprintf("%dworkers", r.Workers)
		c.RecordValue(key+"/steps", "steps", bench.HigherIsBetter, float64(r.Steps))
		c.RecordValue(key+"/final-loss", "loss", bench.LowerIsBetter, r.FinalLoss)
		c.RecordValue(key+"/bytes-per-step", "B", bench.LowerIsBetter, r.BytesPerStep)
		rec := c.RecordSamples(key+"/step-time", "s", bench.LowerIsBetter, r.StepTimes)
		rec.Warmup = 0
		c.RecordValue(key+"/efficiency", "ratio", bench.ReportOnly, r.Efficiency)
	}
	return nil
}
