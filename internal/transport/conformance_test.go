package transport

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

func testModel(seed uint64) *executor.Executor {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 6, Width: 6,
		WithHead: true, Seed: seed}, 16)
	e := executor.MustNew(m)
	e.SetTraining(true)
	return e
}

// dsgdTrace is one rank's training record: per-step loss plus final packed
// parameters.
type dsgdTrace struct {
	losses []float32
	params []float32
}

// dsgdWorker runs allreduce-averaged DSGD for one rank over whatever
// fabric r speaks — the exact same code executes on the simulator and on
// TCP, which is the point of the conformance test.
func dsgdWorker(r dist.Rank, ds training.Dataset, steps, batch int) (dsgdTrace, error) {
	e := testModel(21)
	d := training.NewDriver(e, training.NewFusedSGD(0.1))
	opt := dist.NewConsistentDecentralized(d, r, mpi.AllreduceRing)
	stride := tensor.Volume(ds.SampleShape())
	share := batch / r.Size()
	var tr dsgdTrace
	for i := 0; i < steps; i++ {
		x := make([]float32, share*stride)
		labels := make([]float32, share)
		for j := 0; j < share; j++ {
			id := i*batch + r.ID()*share + j
			labels[j] = float32(ds.Read(id, x[j*stride:(j+1)*stride]))
		}
		feeds := map[string]*tensor.Tensor{
			"x":      tensor.From(x, share, 1, 6, 6),
			"labels": tensor.From(labels, share),
		}
		out, err := opt.Train(context.Background(), feeds)
		if err != nil {
			return tr, err
		}
		tr.losses = append(tr.losses, out["loss"].Data()[0])
	}
	tr.params = append([]float32(nil), dist.PackParams(e.Network()).Vec...)
	return tr, nil
}

// TestTCPDSGDMatchesSimulator is the PR's acceptance criterion: two-worker
// DSGD over TCP loopback must reach tolerance-equal losses (and final
// parameters) against the in-process simulator on the same seed and data
// partition. Both fabrics run the identical worker code; the TCP ring
// reproduces the simulator ring's chunking, so the trajectories agree to
// float32 round-off.
func TestTCPDSGDMatchesSimulator(t *testing.T) {
	const (
		workers = 2
		batch   = 8
		steps   = 3
	)
	ds := training.SyntheticClassification(batch*steps, 4, []int{1, 6, 6}, 0.2, 13)

	// In-process simulator run.
	simTraces := make([]dsgdTrace, workers)
	if _, _, err := mpi.Run(workers, mpi.Aries(), func(r *mpi.Rank) error {
		tr, err := dsgdWorker(r, ds, steps, batch)
		simTraces[r.ID()] = tr
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Networked run over TCP loopback.
	ranks, err := NewLocalWorld(workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, r := range ranks {
			r.Close()
		}
	}()
	tcpTraces := make([]dsgdTrace, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *TCPRank) {
			defer wg.Done()
			errs[i] = Protect(func() error {
				tr, err := dsgdWorker(r, ds, steps, batch)
				tcpTraces[i] = tr
				return err
			})
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", i, err)
		}
	}

	const tol = 1e-6
	for w := 0; w < workers; w++ {
		sim, tcp := simTraces[w], tcpTraces[w]
		if len(sim.losses) != steps || len(tcp.losses) != steps {
			t.Fatalf("rank %d: %d simulator losses, %d TCP losses", w, len(sim.losses), len(tcp.losses))
		}
		for i := range sim.losses {
			if d := math.Abs(float64(sim.losses[i] - tcp.losses[i])); d > tol {
				t.Errorf("rank %d step %d: TCP loss %g vs simulator %g (|Δ|=%g)",
					w, i, tcp.losses[i], sim.losses[i], d)
			}
		}
		if len(sim.params) != len(tcp.params) {
			t.Fatalf("rank %d: parameter length mismatch %d vs %d", w, len(sim.params), len(tcp.params))
		}
		for i := range sim.params {
			if d := math.Abs(float64(sim.params[i] - tcp.params[i])); d > tol {
				t.Fatalf("rank %d param %d: TCP %g vs simulator %g", w, i, tcp.params[i], sim.params[i])
			}
		}
	}
}

// TestTCPParameterServer runs the full centralized stack over real
// sockets: RunPSServer on rank 0 (best-effort replies, done-counting
// shutdown), CentralizedWorker loops on the other ranks — the same wiring
// the job control plane launches as separate processes.
func TestTCPParameterServer(t *testing.T) {
	const (
		nodes = 3
		steps = 4
		batch = 8
	)
	ds := training.SyntheticClassification(256, 4, []int{1, 6, 6}, 0.2, 31)
	ranks, err := NewLocalWorld(nodes, func(o *Options) {
		if o.ID == 0 {
			o.BestEffortSend = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, r := range ranks {
			r.Close()
		}
	}()
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *TCPRank) {
			defer wg.Done()
			errs[i] = Protect(func() error {
				e := testModel(9)
				if r.ID() == 0 {
					return dist.RunPSServer(context.Background(), r,
						training.NewFusedSGD(0.05), dist.PackParams(e.Network()),
						dist.ServerConfig{Mode: dist.PSAsync, UntilDone: true})
				}
				opt := dist.NewCentralizedWorker(e, r)
				s := dist.NewDistributedSampler(ds, batch, r.ID()-1, nodes-1, 41)
				for i := 0; i < steps; i++ {
					b := s.Next()
					if b == nil {
						s.Reset()
						b = s.Next()
					}
					out, err := opt.Train(context.Background(), b.Feeds())
					if err != nil {
						return err
					}
					if loss, ok := out["loss"]; ok && loss.HasNaN() {
						t.Errorf("rank %d: NaN loss at step %d", r.ID(), i)
					}
				}
				opt.Finish()
				return nil
			})
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// TestDSGDStepAllocatesNothingParameterSized is the Level-3 allocation
// ceiling: two ranks over loopback, product SGD under ring-allreduce DSGD.
// Once warm, one step of the whole world — two forward/backward passes, two
// all-reduces per parameter with their frames, two updates — allocates less
// than a single copy of the largest parameter, and the ranks end bitwise
// equal.
func TestDSGDStepAllocatesNothingParameterSized(t *testing.T) {
	const workers, batch = 2, 8
	ranks := world(t, workers, nil)
	ds := training.SyntheticClassification(workers*batch, 4, []int{1, 16, 16}, 0.3, 5)
	execs := make([]*executor.Executor, workers)
	opts := make([]training.Optimizer, workers)
	feeds := make([]map[string]*tensor.Tensor, workers)
	var largest int64
	for i, r := range ranks {
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 16, Width: 16, WithHead: true, Seed: 3}, 256)
		execs[i] = executor.MustNew(m)
		execs[i].SetTraining(true)
		opts[i] = dist.NewConsistentDecentralized(
			training.NewDriver(execs[i], training.NewFusedSGD(0.05)), r, mpi.AllreduceRing)
		feeds[i] = dist.NewDistributedSampler(ds, batch, i, workers, 1).Next().Feeds()
		for _, name := range execs[i].Network().Params() {
			p, _ := execs[i].Network().FetchTensor(name)
			largest = max(largest, p.Bytes())
		}
	}
	steps := func(n int) {
		run(t, ranks, func(r *TCPRank) error {
			for i := 0; i < n; i++ {
				if _, err := opts[r.ID()].Train(context.Background(), feeds[r.ID()]); err != nil {
					return err
				}
			}
			return nil
		})
	}
	steps(3)
	const measured = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps(measured)
	runtime.ReadMemStats(&after)
	perStep := int64(after.TotalAlloc-before.TotalAlloc) / measured
	if perStep >= largest/2 {
		t.Fatalf("a warm 2-rank step allocates %d B; the largest parameter is %d B", perStep, largest)
	}
	t.Logf("warm 2-rank step: %d B allocated, largest parameter %d B", perStep, largest)

	p0, p1 := dist.PackParams(execs[0].Network()).Vec, dist.PackParams(execs[1].Network()).Vec
	for i := range p0 {
		if math.Float32bits(p0[i]) != math.Float32bits(p1[i]) {
			t.Fatalf("parameter %d: rank 0 holds %g, rank 1 %g", i, p0[i], p1[i])
		}
	}
}
