package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"deep500/internal/bench"
	"deep500/internal/executor"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/serve"
	"deep500/internal/tensor"
)

// This file implements the "serve" suite experiment: online-inference
// throughput and latency under concurrent closed-loop clients, with the
// dynamic micro-batcher on (MaxBatch 8) versus off (MaxBatch 1, the
// single-request baseline). It is the serving-side counterpart of the
// paper's full-stack measurement philosophy: the same executor, kernels
// and model measured under a realistic operating condition — many
// concurrent small requests — instead of one big offline batch.
//
// Record semantics mirror the rest of the suite: request counts are
// deterministic and always gate; latency distributions are wall-clock
// ("s") and self-demote across differing CPUs; throughput, percentile
// spotlights and batch occupancy depend on scheduler timing and are
// recorded report-only.

// ServeBenchRow is one serving variant's measurement.
type ServeBenchRow struct {
	Variant    string // "unbatched" (MaxBatch 1) or "batched" (MaxBatch 8)
	MaxBatch   int
	Requests   int       // requests served (clients × per-client count)
	Latencies  []float64 // per-request client-observed seconds
	Throughput float64   // requests per busy wall-clock second
	Occupancy  float64   // mean rows per executed batch
	Batches    uint64

	busySeconds float64 // summed timed-round wall clock
}

// serveBenchConfig scales the experiment.
type serveBenchConfig struct {
	clients    int
	perClient  int
	maxBatch   int
	linger     time.Duration
	queueDepth int
}

func serveBenchParams(quick bool) serveBenchConfig {
	// The closed loop completes in tens of milliseconds even at full
	// scale, so quick mode keeps a sample large enough for stable
	// percentiles instead of the aggressive shrink other experiments need.
	cfg := serveBenchConfig{clients: 8, perClient: 150, maxBatch: 8, linger: 5 * time.Millisecond, queueDepth: 256}
	if quick {
		cfg.perClient = 60
	}
	return cfg
}

// RunServeBench drives the serving subsystem with closed-loop clients:
// every client keeps exactly one request in flight, so offered load
// follows capacity and the comparison isolates the batching effect. Both
// variants run one replica — the single-replica setting makes the
// batched-vs-unbatched contrast pure (no extra parallelism on either
// side). Outputs of the two variants are cross-checked for tolerance
// equality before any timing runs.
func RunServeBench(ctx context.Context, o Options) ([]ServeBenchRow, error) {
	p := serveBenchParams(o.Quick)
	// The mlp zoo builder at serving scale: narrow hidden layers (minimal
	// per-row GEMM work, which batching cannot amortize — with scalar CPU
	// kernels a wide MLP is compute-bound and batching is throughput-
	// neutral) across several graph nodes (per-pass scheduling, state-map
	// and dispatch overhead, which batching amortizes 8×). This is the
	// operating point real online inference lives at: many tiny requests
	// whose per-request overhead rivals their compute.
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: o.seed()}, 8, 8, 8, 8)

	factory := func() (executor.GraphExecutor, error) { return executor.New(m) }

	// Per-client request tensors (reused across rounds; the server copies
	// outputs, never mutates feeds).
	inputs := make([]*tensor.Tensor, p.clients)
	for i := range inputs {
		rng := tensor.NewRNG(o.seed() + uint64(i)*7919)
		inputs[i] = tensor.RandNormal(rng, 0, 1, 1, 1, 8, 8)
	}

	// Correctness cross-check: batched outputs must match per-item
	// reference inference before any throughput claims.
	ref, err := executor.New(m)
	if err != nil {
		return nil, err
	}
	want := make([]map[string]*tensor.Tensor, p.clients)
	for i, in := range inputs {
		out, err := ref.Inference(ctx, map[string]*tensor.Tensor{"x": in})
		if err != nil {
			return nil, err
		}
		want[i] = out
	}

	variants := []struct {
		name     string
		maxBatch int
		linger   time.Duration
	}{
		{"unbatched", 1, 0},
		{"batched", p.maxBatch, p.linger},
	}
	servers := make([]*serve.Server, len(variants))
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close(context.Background())
			}
		}
	}()
	results := make([]ServeBenchRow, len(variants))
	var warm []serve.Stats
	for vi, v := range variants {
		srv, err := serve.New(serve.Options{
			MaxBatch:    v.maxBatch,
			MaxLinger:   v.linger,
			Replicas:    1,
			QueueDepth:  p.queueDepth,
			NewExecutor: factory,
		})
		if err != nil {
			return nil, err
		}
		servers[vi] = srv
		results[vi] = ServeBenchRow{Variant: v.name, MaxBatch: v.maxBatch}

		// Warmup + correctness: every client's request once, checked
		// against the per-item reference.
		warmErrs := make([]error, p.clients)
		var wg sync.WaitGroup
		for i := 0; i < p.clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, err := srv.Infer(ctx, map[string]*tensor.Tensor{"x": inputs[i]})
				if err != nil {
					warmErrs[i] = err
					return
				}
				for name, w := range want[i] {
					g, ok := out[name]
					if !ok {
						warmErrs[i] = fmt.Errorf("serve: variant %s lost output %q", v.name, name)
						return
					}
					if d := maxAbsDiffT(w, g); d > 1e-4 {
						warmErrs[i] = fmt.Errorf("serve: variant %s output %q diverges from per-item inference: max |Δ| = %g", v.name, name, d)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range warmErrs {
			if err != nil {
				return nil, err
			}
		}
		warm = append(warm, srv.Stats())
	}

	// Timed closed loops. Each variant starts from a freshly collected
	// heap (the testing.B convention): allocation pressure is a property
	// of the variant itself — the unbatched path allocates per-pass state
	// for every request, the batched path amortizes it — so each variant
	// must pay for its own garbage rather than inherit the other's (or a
	// previous experiment's) GC pacing. Rounds keep the two variants
	// adjacent in time against CPU-frequency drift.
	const roundLen = 30
	rounds := (p.perClient + roundLen - 1) / roundLen
	for r := 0; r < rounds; r++ {
		reqs := min(roundLen, p.perClient-r*roundLen)
		for vi := range variants {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			srv := servers[vi]
			runtime.GC()
			latencies := make([][]float64, p.clients)
			errs := make([]error, p.clients)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < p.clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lat := make([]float64, 0, reqs)
					for q := 0; q < reqs; q++ {
						if err := ctx.Err(); err != nil {
							errs[i] = err
							return
						}
						t0 := time.Now()
						if _, err := srv.Infer(ctx, map[string]*tensor.Tensor{"x": inputs[i]}); err != nil {
							errs[i] = err
							return
						}
						lat = append(lat, time.Since(t0).Seconds())
					}
					latencies[i] = lat
				}(i)
			}
			wg.Wait()
			busy := time.Since(start).Seconds()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			row := &results[vi]
			row.Requests += p.clients * reqs
			row.busySeconds += busy
			for _, lat := range latencies {
				row.Latencies = append(row.Latencies, lat...)
			}
		}
	}

	for vi := range results {
		row := &results[vi]
		st := servers[vi].Stats()
		if row.busySeconds > 0 {
			row.Throughput = float64(row.Requests) / row.busySeconds
		}
		// Timed-loop occupancy: subtract the warmup batches.
		if b := st.Batches - warm[vi].Batches; b > 0 {
			row.Batches = b
			row.Occupancy = float64(st.Rows-warm[vi].Rows) / float64(b)
		}
	}
	return results, nil
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

// percentileOf is metrics.Percentile over an unsorted sample.
func percentileOf(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return metrics.Percentile(s, q)
}

// RenderServeBench renders the serving rows.
func RenderServeBench(rows []ServeBenchRow) *Table {
	t := &Table{Title: "Serving: dynamic micro-batching vs single-request baseline (mlp, 1 replica)",
		Headers: []string{"Variant", "MaxBatch", "Requests", "Throughput", "p50 lat", "p95 lat", "Rows/batch"}}
	for _, r := range rows {
		t.AddRow(r.Variant, itoa(int64(r.MaxBatch)), itoa(int64(r.Requests)),
			fmt.Sprintf("%.0f req/s", r.Throughput),
			fsec(percentileOf(r.Latencies, 0.50)), fsec(percentileOf(r.Latencies, 0.95)),
			fmt.Sprintf("%.2f", r.Occupancy))
	}
	t.AddNote("closed-loop clients (one request in flight each); batching amortizes per-pass dispatch and weight traffic")
	t.AddNote("request counts are deterministic and gate; latency/throughput/occupancy follow scheduler timing")
	return t
}

func runServeExp(c *bench.Context, o Options) error {
	rows, err := RunServeBench(c.Ctx, o)
	if err != nil {
		return err
	}
	RenderServeBench(rows).Render(c.Out)
	tput := map[string]float64{}
	for _, r := range rows {
		key := r.Variant
		c.RecordValue(key+"/requests", "req", bench.HigherIsBetter, float64(r.Requests))
		rec := c.RecordSamples(key+"/latency", "s", bench.LowerIsBetter, r.Latencies)
		rec.Warmup = 1 // one untimed round per client
		c.RecordValue(key+"/p50-latency", "s", bench.ReportOnly, percentileOf(r.Latencies, 0.50))
		c.RecordValue(key+"/p95-latency", "s", bench.ReportOnly, percentileOf(r.Latencies, 0.95))
		c.RecordValue(key+"/throughput", "req/s", bench.ReportOnly, r.Throughput)
		c.RecordValue(key+"/batch-occupancy", "rows", bench.ReportOnly, r.Occupancy)
		tput[key] = r.Throughput
	}
	if tput["unbatched"] > 0 {
		c.RecordValue("batched-speedup", "x", bench.ReportOnly, tput["batched"]/tput["unbatched"])
	}
	return nil
}
