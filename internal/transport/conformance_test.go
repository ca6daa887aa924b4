package transport

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

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

// dsgdTrace is one rank's training record: per-step loss, final packed
// parameters and, over TCP, the bytes the rank put on the wire each step.
type dsgdTrace struct {
	losses []float32
	params []float32
	sent   []int64
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
	wire, _ := r.(*TCPRank)
	var sentBefore int64
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
		if wire != nil {
			sent := wire.Stats().SentBytes
			tr.sent = append(tr.sent, sent-sentBefore)
			sentBefore = sent
		}
	}
	tr.params = append([]float32(nil), e.Network().ParamSlab().Data()...)
	return tr, nil
}

// TestTCPDSGDMatchesSimulator: DSGD over TCP loopback reaches the losses
// and final parameters of the in-process simulator bit for bit, on the same
// seed and data partition, at two and four workers. Both fabrics run the
// identical worker code and the TCP ring reproduces the simulator ring's
// chunking (TestBitContract's trajectory/dsgd row holds the same at two
// ranks). Rank 0's wire volume per step is pinned exactly: it is a pure
// function of the parameter count, the world size and the framing (one
// all-reduce of the gradient slab, 2(p−1) frames), so any change to the
// ring schedule or the frame layout shows up here.
func TestTCPDSGDMatchesSimulator(t *testing.T) {
	const (
		batch = 8
		steps = 3
	)
	for _, tc := range []struct {
		workers     int
		sentPerStep int64 // rank 0's Stats().SentBytes per step
	}{
		{2, 2720},
		{4, 4200},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			testTCPDSGDMatchesSimulator(t, tc.workers, batch, steps, tc.sentPerStep)
		})
	}
}

func testTCPDSGDMatchesSimulator(t *testing.T, workers, batch, steps int, sentPerStep int64) {
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
			tcpTraces[i], errs[i] = dsgdWorker(r, ds, steps, batch)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("TCP rank %d: %v", i, err)
		}
	}

	for w := 0; w < workers; w++ {
		sim, tcp := simTraces[w], tcpTraces[w]
		if len(sim.losses) != steps || len(tcp.losses) != steps || len(sim.params) != len(tcp.params) {
			t.Fatalf("rank %d: %d simulator losses, %d TCP losses; %d vs %d parameters",
				w, len(sim.losses), len(tcp.losses), len(sim.params), len(tcp.params))
		}
		for _, c := range []struct {
			what     string
			sim, tcp []float32
		}{{"loss", sim.losses, tcp.losses}, {"parameter", sim.params, tcp.params}} {
			for i := range c.sim {
				if math.Float32bits(c.sim[i]) != math.Float32bits(c.tcp[i]) {
					t.Fatalf("rank %d %s %d: TCP %g, simulator %g", w, c.what, i, c.tcp[i], c.sim[i])
				}
			}
		}
	}
	for i, sent := range tcpTraces[0].sent {
		if sent != sentPerStep {
			t.Errorf("rank 0 step %d: sent %d bytes, want %d", i, sent, sentPerStep)
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
			errs[i] = func() error {
				e := testModel(9)
				if r.ID() == 0 {
					return dist.RunPSServer(context.Background(), r,
						training.NewFusedSGD(0.05), e.Network().ParamSlab().Data(),
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
				return opt.Finish()
			}()
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
// Once warm, one step of the whole world — two forward/backward passes, each
// rank's all-reduce of its gradient slab with the frames, two updates — allocates less
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

	p0, p1 := execs[0].Network().ParamSlab().Data(), execs[1].Network().ParamSlab().Data()
	for i := range p0 {
		if math.Float32bits(p0[i]) != math.Float32bits(p1[i]) {
			t.Fatalf("parameter %d: rank 0 holds %g, rank 1 %g", i, p0[i], p1[i])
		}
	}
}

// refAllreduce is the reference the shared all-reduce is held to: the ring
// and recursive doubling transcribed directly onto *mpi.Rank, with an
// explicit chunk-bounds table and each message charged its chunk's share
// of simBytes.
func refAllreduce(r *mpi.Rank, algo mpi.AllreduceAlgo, data []float32, simBytes int64) error {
	p, id, n := r.Size(), r.ID(), len(data)
	if p == 1 {
		return nil
	}
	if simBytes == mpi.SimActual {
		simBytes = int64(n) * 4
	}
	ctx := context.Background()
	if algo == mpi.AllreduceDoubling && p&(p-1) == 0 {
		for mask := 1; mask < p; mask <<= 1 {
			r.Send(id^mask, 0, data, simBytes)
			m, err := r.Recv(ctx, id^mask)
			if err != nil {
				return err
			}
			for i := range data {
				data[i] += m.Data[i]
			}
		}
		return nil
	}
	bounds := make([]int, p+1)
	for i := range bounds {
		bounds[i] = i * n / p
	}
	chunkBytes := func(c int) int64 {
		if n == 0 {
			return simBytes / int64(p)
		}
		return simBytes * int64(bounds[c+1]-bounds[c]) / int64(n)
	}
	next, prev := (id+1)%p, (id-1+p)%p
	for step := 0; step < p-1; step++ {
		send, recv := (id-step+p)%p, (id-step-1+p)%p
		r.Send(next, 0, data[bounds[send]:bounds[send+1]], chunkBytes(send))
		m, err := r.Recv(ctx, prev)
		if err != nil {
			return err
		}
		dst := data[bounds[recv]:bounds[recv+1]]
		for i := range dst {
			dst[i] += m.Data[i]
		}
	}
	for step := 0; step < p-1; step++ {
		send, recv := (id-step+1+p)%p, (id-step+p)%p
		r.Send(next, 0, data[bounds[send]:bounds[send+1]], chunkBytes(send))
		m, err := r.Recv(ctx, prev)
		if err != nil {
			return err
		}
		copy(data[bounds[recv]:bounds[recv+1]], m.Data)
	}
	return nil
}

// simCost charges every term of the α–β model, so a changed message order
// or charge shows in the virtual clock.
var simCost = mpi.CostModel{Latency: 1500 * time.Nanosecond, Bandwidth: 10e9,
	SendOverhead: 500 * time.Nanosecond, HostDeviceBandwidth: 2e9, PerMessageCPU: 5 * time.Microsecond}

// simRun runs one all-reduce per rank on the simulator, rank i starting i
// µs late, and returns each rank's result and virtual time with the world.
func simRun(t *testing.T, p int, inputs [][]float32, reduce func(*mpi.Rank, []float32) error) ([][]float32, []time.Duration, *mpi.World) {
	t.Helper()
	out := make([][]float32, p)
	times := make([]time.Duration, p)
	_, w, err := mpi.Run(p, simCost, func(r *mpi.Rank) error {
		v := append([]float32(nil), inputs[r.ID()]...)
		r.Compute(time.Duration(r.ID()) * time.Microsecond)
		err := reduce(r, v)
		out[r.ID()], times[r.ID()] = v, r.Time()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, times, w
}

// TestTCPRankAllreduceMatchesSimulator is the collective conformance check:
// dist.AllreduceSum, run over the simulator and over TCP, produces bitwise
// the floats of the reference on the same per-rank inputs — ring and
// doubling, across world sizes, lengths that do not divide the world size
// and lengths shorter than it — and on the simulator it sends the same
// messages at the same virtual times.
func TestTCPRankAllreduceMatchesSimulator(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		ranks := world(t, p, nil)
		for _, algo := range []mpi.AllreduceAlgo{mpi.AllreduceRing, mpi.AllreduceDoubling} {
			for _, n := range []int{1, 2, 7, 64, 1023} {
				inputs := make([][]float32, p)
				for i := range inputs {
					inputs[i] = tensor.RandNormal(tensor.NewRNG(uint64(100*p+n+i)), 0, 1, n).Data()
				}
				const charge = 102_400_000
				want, wantT, wantW := simRun(t, p, inputs, func(r *mpi.Rank, v []float32) error {
					return refAllreduce(r, algo, v, charge)
				})
				sim, simT, simW := simRun(t, p, inputs, func(r *mpi.Rank, v []float32) error {
					return dist.AllreduceSum(context.Background(), r, algo, v, charge)
				})
				tcp := make([][]float32, p)
				run(t, ranks, func(r *TCPRank) error {
					tcp[r.ID()] = append([]float32(nil), inputs[r.ID()]...)
					return dist.AllreduceSum(context.Background(), r, algo, tcp[r.ID()], mpi.SimActual)
				})
				for rank := 0; rank < p; rank++ {
					for i := range want[rank] {
						w := math.Float32bits(want[rank][i])
						if math.Float32bits(sim[rank][i]) != w || math.Float32bits(tcp[rank][i]) != w {
							t.Fatalf("algo %d p=%d n=%d rank %d elem %d: simulator %g, TCP %g, reference %g",
								algo, p, n, rank, i, sim[rank][i], tcp[rank][i], want[rank][i])
						}
					}
					if simT[rank] != wantT[rank] {
						t.Fatalf("algo %d p=%d n=%d rank %d: virtual time %v, reference %v", algo, p, n, rank, simT[rank], wantT[rank])
					}
				}
				if simW.Volume.Sent() != wantW.Volume.Sent() || simW.Volume.Received() != wantW.Volume.Received() ||
					simW.Volume.Messages() != wantW.Volume.Messages() {
					t.Fatalf("algo %d p=%d n=%d: volume %d/%d/%d, reference %d/%d/%d", algo, p, n,
						simW.Volume.Sent(), simW.Volume.Received(), simW.Volume.Messages(),
						wantW.Volume.Sent(), wantW.Volume.Received(), wantW.Volume.Messages())
				}
			}
		}
	}
}

// TestAllreduceVirtualTimeGolden pins the simulated cost of an all-reduce
// to recorded values, so the Fig. 12 reproductions read the same: per-rank
// virtual time and the world's sent/received bytes and message count, for
// zero inputs under simCost.
func TestAllreduceVirtualTimeGolden(t *testing.T) {
	golden := []struct {
		algo             mpi.AllreduceAlgo
		p, n             int
		simBytes         int64
		times            []time.Duration
		sent, recv, msgs int64
	}{
		{0, 2, 1, -1, []time.Duration{24000, 25008}, 8, 8, 4},
		{0, 2, 1, 102400000, []time.Duration{112663502, 122905004}, 204800000, 8, 4},
		{0, 2, 2, -1, []time.Duration{24008, 25008}, 16, 16, 4},
		{0, 2, 2, 102400000, []time.Duration{61464003, 61465004}, 204800000, 16, 4},
		{0, 2, 7, -1, []time.Duration{24026, 25035}, 56, 56, 4},
		{0, 2, 7, 102400000, []time.Duration{64389227, 70242158}, 204799998, 56, 4},
		{0, 2, 1023, -1, []time.Duration{28496, 29505}, 8184, 8184, 4},
		{0, 2, 1023, 102400000, []time.Duration{61405985, 61527105}, 204799998, 8184, 4},
		{0, 3, 1, -1, []time.Duration{50017, 48000, 49000}, 16, 16, 12},
		{0, 3, 1, 102400000, []time.Duration{245810008, 174127004, 235568505}, 409600000, 16, 12},
		{0, 3, 2, -1, []time.Duration{50017, 48000, 49017}, 32, 32, 12},
		{0, 3, 2, 102400000, []time.Duration{122930008, 117807506, 122929008}, 409600000, 32, 12},
		{0, 3, 7, -1, []time.Duration{50052, 48035, 49035}, 112, 112, 12},
		{0, 3, 7, 102400000, []time.Duration{105375737, 89281304, 100985664}, 409599992, 112, 12},
		{0, 3, 1023, -1, []time.Duration{56001, 54001, 55001}, 16368, 16368, 12},
		{0, 3, 1023, 102400000, []time.Duration{81972727, 81970727, 81971727}, 409599996, 16368, 12},
		{0, 4, 1, -1, []time.Duration{74000, 75026, 72000, 73000}, 24, 24, 24},
		{0, 4, 1, 102400000, []time.Duration{358473510, 368715012, 235590506, 297032007}, 614400000, 24, 24},
		{0, 4, 2, -1, []time.Duration{74000, 75026, 72000, 73026}, 48, 48, 24},
		{0, 4, 2, 102400000, []time.Duration{179273510, 184395012, 179271510, 184393012}, 614400000, 48, 24},
		{0, 4, 7, -1, []time.Duration{74052, 75052, 72026, 73052}, 168, 168, 24},
		{0, 4, 7, 102400000, []time.Duration{105399735, 105400735, 102471519, 105398735}, 614399982, 168, 24},
		{0, 4, 1023, -1, []time.Duration{80758, 81758, 78731, 79758}, 24552, 24552, 24},
		{0, 4, 1023, 102400000, []time.Duration{92327158, 92328158, 91964793, 92326158}, 614399988, 24552, 24},
		{1, 2, 1, -1, []time.Duration{13004, 12004}, 8, 8, 2},
		{1, 2, 1, 102400000, []time.Duration{61453002, 61452002}, 204800000, 8, 2},
		{1, 2, 2, -1, []time.Duration{13008, 12008}, 16, 16, 2},
		{1, 2, 2, 102400000, []time.Duration{61453004, 61452004}, 204800000, 16, 2},
		{1, 2, 7, -1, []time.Duration{13030, 12030}, 56, 56, 2},
		{1, 2, 7, 102400000, []time.Duration{61453014, 61452014}, 204800000, 56, 2},
		{1, 2, 1023, -1, []time.Duration{17501, 16501}, 8184, 8184, 2},
		{1, 2, 1023, 102400000, []time.Duration{61455046, 61454046}, 204800000, 8184, 2},
		{1, 3, 1, -1, []time.Duration{50017, 48000, 49000}, 16, 16, 12},
		{1, 3, 1, 102400000, []time.Duration{245810008, 174127004, 235568505}, 409600000, 16, 12},
		{1, 3, 2, -1, []time.Duration{50017, 48000, 49017}, 32, 32, 12},
		{1, 3, 2, 102400000, []time.Duration{122930008, 117807506, 122929008}, 409600000, 32, 12},
		{1, 3, 7, -1, []time.Duration{50052, 48035, 49035}, 112, 112, 12},
		{1, 3, 7, 102400000, []time.Duration{105375737, 89281304, 100985664}, 409599992, 112, 12},
		{1, 3, 1023, -1, []time.Duration{56001, 54001, 55001}, 16368, 16368, 12},
		{1, 3, 1023, 102400000, []time.Duration{81972727, 81970727, 81971727}, 409599996, 16368, 12},
		{1, 4, 1, -1, []time.Duration{27008, 26008, 25508, 24508}, 32, 32, 8},
		{1, 4, 1, 102400000, []time.Duration{122907004, 122906004, 122905004, 122904004}, 819200000, 32, 8},
		{1, 4, 2, -1, []time.Duration{27017, 26017, 25516, 24516}, 64, 64, 8},
		{1, 4, 2, 102400000, []time.Duration{122907008, 122906008, 122905008, 122904008}, 819200000, 64, 8},
		{1, 4, 7, -1, []time.Duration{27061, 26061, 25558, 24558}, 224, 224, 8},
		{1, 4, 7, 102400000, []time.Duration{122907028, 122906028, 122905028, 122904028}, 819200000, 224, 8},
		{1, 4, 1023, -1, []time.Duration{36002, 35002, 34093, 33093}, 32736, 32736, 8},
		{1, 4, 1023, 102400000, []time.Duration{122911092, 122910092, 122909092, 122908092}, 819200000, 32736, 8},
	}
	for _, g := range golden {
		inputs := make([][]float32, g.p)
		for i := range inputs {
			inputs[i] = make([]float32, g.n)
		}
		_, times, w := simRun(t, g.p, inputs, func(r *mpi.Rank, v []float32) error {
			return dist.AllreduceSum(context.Background(), r, g.algo, v, g.simBytes)
		})
		for rank, want := range g.times {
			if times[rank] != want {
				t.Errorf("algo %d p=%d n=%d simBytes=%d rank %d: virtual time %d ns, recorded %d ns",
					g.algo, g.p, g.n, g.simBytes, rank, times[rank], want)
			}
		}
		if w.Volume.Sent() != g.sent || w.Volume.Received() != g.recv || w.Volume.Messages() != g.msgs {
			t.Errorf("algo %d p=%d n=%d simBytes=%d: volume %d/%d/%d, recorded %d/%d/%d", g.algo, g.p, g.n, g.simBytes,
				w.Volume.Sent(), w.Volume.Received(), w.Volume.Messages(), g.sent, g.recv, g.msgs)
		}
	}
}
