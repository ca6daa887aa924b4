package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

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

// TestPackScatterRoundTrip: the parameter slab the schemes send and average
// and the tensors FetchTensor hands out share storage, so a write through
// either is seen through the other, and a same-shape FeedTensor lands in
// the slab.
func TestPackScatterRoundTrip(t *testing.T) {
	net := testModel(3).Network()
	slab := net.ParamSlab().Data()
	if len(slab) == 0 {
		t.Fatal("empty parameter slab")
	}
	orig := slices.Clone(slab)
	for i := range slab {
		slab[i] += 1.5
	}
	off := 0
	for _, name := range net.Params() {
		p, _ := net.FetchTensor(name)
		for j, v := range p.Data() {
			if v != orig[off+j]+1.5 {
				t.Fatalf("%s[%d] reads %g after a slab write, want %g", name, j, v, orig[off+j]+1.5)
			}
			p.Data()[j] = -v
		}
		off += p.Size()
	}
	for i, v := range slab {
		if v != -(orig[i] + 1.5) {
			t.Fatalf("slab[%d] reads %g after a write through FetchTensor, want %g", i, v, -(orig[i] + 1.5))
		}
	}
	name := net.Params()[0]
	p, _ := net.FetchTensor(name)
	net.FeedTensor(name, tensor.Full(7, p.Shape()...))
	if again, _ := net.FetchTensor(name); again != p || slab[0] != 7 || slab[p.Size()-1] != 7 {
		t.Fatalf("a same-shape FeedTensor of %s did not write into the slab", name)
	}
}

func TestDistributedSamplerPartitions(t *testing.T) {
	ds := training.SyntheticClassification(96, 4, []int{1, 4, 4}, 0.2, 5)
	world := 3
	seen := make(map[int]int)
	for w := 0; w < world; w++ {
		s := NewDistributedSampler(ds, 8, w, world, 77)
		steps := 0
		for b := s.Next(); b != nil; b = s.Next() {
			steps++
			if b.Size() != 8 {
				t.Fatalf("batch size %d", b.Size())
			}
		}
		if steps != 96/world/8 {
			t.Fatalf("worker %d took %d steps", w, steps)
		}
		for _, id := range s.CaptureState().Order {
			seen[id]++
		}
	}
	if len(seen) != 96 {
		t.Fatalf("shards cover %d of 96 samples", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d assigned %d times", id, n)
		}
	}
}

// TestDSGDMatchesSerial validates the core Level 3 claim: allreduce-averaged
// DSGD over p ranks, each on 1/p of a batch, follows the same trajectory as
// serial SGD on the full batch (collectives move real data, so this is
// checked numerically).
func TestDSGDMatchesSerial(t *testing.T) {
	const (
		p     = 2
		batch = 8
		lr    = 0.1
		steps = 3
	)
	ds := training.SyntheticClassification(batch*steps, 4, []int{1, 6, 6}, 0.2, 13)

	// Serial reference: full batches.
	serial := testModel(21)
	sd := training.NewDriver(serial, training.NewFusedSGD(lr))
	serialSampler := training.NewSequentialSampler(ds, batch)
	for i := 0; i < steps; i++ {
		b := serialSampler.Next()
		if _, err := sd.Train(context.Background(), b.Feeds()); err != nil {
			t.Fatal(err)
		}
	}

	// Distributed: p ranks on deterministic half-batches of the same data.
	finalCh := make(chan []float32, p)
	_, _, err := mpi.Run(p, mpi.Aries(), func(r *mpi.Rank) error {
		e := testModel(21)
		d := training.NewDriver(e, training.NewFusedSGD(lr))
		opt := NewConsistentDecentralized(d, r, mpi.AllreduceRing)
		stride := tensor.Volume(ds.SampleShape())
		for i := 0; i < steps; i++ {
			// rank r takes the r-th contiguous half of serial batch i
			half := batch / p
			x := make([]float32, half*stride)
			labels := make([]float32, half)
			for j := 0; j < half; j++ {
				id := i*batch + r.ID()*half + j
				labels[j] = float32(ds.Read(id, x[j*stride:(j+1)*stride]))
			}
			feeds := map[string]*tensor.Tensor{
				"x":      tensor.From(x, half, 1, 6, 6),
				"labels": tensor.From(labels, half),
			}
			if _, err := opt.Train(context.Background(), feeds); err != nil {
				return err
			}
		}
		finalCh <- e.Network().ParamSlab().Data()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := serial.Network().ParamSlab().Data()
	for r := 0; r < p; r++ {
		got := <-finalCh
		for i := range ref {
			if d := math.Abs(float64(ref[i] - got[i])); d > 2e-4 {
				t.Fatalf("param %d diverges from serial by %g", i, d)
			}
		}
	}
}

// TestAllreduceMeanFoldsTheScale holds AllreduceMean, which scales each sum
// once where it is complete, bitwise to AllreduceSum followed by every rank
// multiplying by 1/p, at 2, 3 and 4 ranks. The vector's length leaves the
// ring's chunks uneven, and it holds a −0 on every rank, an infinity and
// subnormals.
func TestAllreduceMeanFoldsTheScale(t *testing.T) {
	input := func(id int) []float32 {
		v := tensor.RandNormal(tensor.NewRNG(uint64(40+id)), 0, 1, 1001).Data()
		v[0], v[1], v[2], v[3] = float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e-45, -3e-45
		return v
	}
	ctx := context.Background()
	for _, p := range []int{2, 3, 4} {
		want, got := make([][]float32, p), make([][]float32, p)
		if _, _, err := mpi.Run(p, mpi.Aries(), func(r *mpi.Rank) error {
			id := r.ID()
			want[id] = input(id)
			if err := AllreduceSum(ctx, r, want[id], mpi.SimActual); err != nil {
				return err
			}
			inv := 1 / float32(p)
			for i, v := range want[id] {
				want[id][i] = v * inv
			}
			got[id] = input(id)
			return AllreduceMean(ctx, r, got[id], mpi.SimActual)
		}); err != nil {
			t.Fatal(err)
		}
		for id := range got {
			for i := range got[id] {
				if math.Float32bits(got[id][i]) != math.Float32bits(want[0][i]) {
					t.Fatalf("p=%d rank %d [%d]: mean %g (%#x), sum then scale %g (%#x)", p, id, i,
						got[id][i], math.Float32bits(got[id][i]), want[0][i], math.Float32bits(want[0][i]))
				}
			}
		}
	}
}

// TestPSServerModes runs a tiny training loop against the parameter server
// in all three consistency modes and checks ranks terminate cleanly with
// finite, synchronized-enough parameters.
func TestPSServerModes(t *testing.T) {
	for _, mode := range []PSMode{PSSync, PSAsync, PSStale} {
		t.Run(mode.String(), func(t *testing.T) {
			const (
				nodes = 3
				steps = 4
				batch = 8
			)
			ds := training.SyntheticClassification(256, 4, []int{1, 6, 6}, 0.2, 31)
			_, _, err := mpi.Run(nodes, mpi.Aries(), func(r *mpi.Rank) error {
				e := testModel(9)
				if r.ID() == 0 {
					return RunPSServer(context.Background(), r, training.NewFusedSGD(0.05),
						e.Network().ParamSlab().Data(),
						ServerConfig{Mode: mode, Staleness: 1, StepsPerWorker: steps})
				}
				opt := NewCentralizedWorker(e, r)
				s := training.NewShardSampler(ds, batch, r.ID()-1, nodes-1, 41)
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
				if mode == PSAsync {
					return opt.Finish()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingRank wraps a Rank and counts successful receives against
// releases.
type countingRank struct {
	Rank
	recvs, releases int
}

func (c *countingRank) Recv(ctx context.Context, src int) (Message, error) {
	m, err := c.Rank.Recv(ctx, src)
	if err == nil {
		c.recvs++
	}
	return m, err
}

func (c *countingRank) Release(data []float32) {
	c.releases++
	c.Rank.Release(data)
}

// scriptedRank is rank 0 of a world of size ranks: each receive returns
// the next message of script, whatever source it asks for, and each send
// records its destination.
type scriptedRank struct {
	size   int
	script []Message
	sentTo []int
}

func (s *scriptedRank) ID() int   { return 0 }
func (s *scriptedRank) Size() int { return s.size }

func (s *scriptedRank) Send(dst, _ int, _ []float32, _ int64) error {
	s.sentTo = append(s.sentTo, dst)
	return nil
}

func (s *scriptedRank) Recv(context.Context, int) (Message, error) {
	if len(s.script) == 0 {
		return Message{}, errors.New("script exhausted")
	}
	m := s.script[0]
	s.script = s.script[1:]
	return m, nil
}

func (s *scriptedRank) Release([]float32) {}

// TestPSStaleReleasesInRankOrder: a stale-synchronous server with
// staleness 0 withholds the replies to workers 1 and 2, which finish ahead
// of worker 3, until worker 3's gradient arrives, and then sends all three
// in ascending rank order, every time.
func TestPSStaleReleasesInRankOrder(t *testing.T) {
	params := make([]float32, 4)
	for round := 0; round < 200; round++ {
		r := &scriptedRank{size: 4}
		for src := 1; src <= 3; src++ {
			r.script = append(r.script, Message{Data: make([]float32, len(params)), Src: src, Tag: TagGrad})
		}
		if err := RunPSServer(context.Background(), r, training.NewFusedSGD(0.05), params,
			ServerConfig{Mode: PSStale, Staleness: 0, StepsPerWorker: 1}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.sentTo, []int{1, 2, 3}) {
			t.Fatalf("round %d: replies went to %v, want [1 2 3]", round, r.sentTo)
		}
	}
}

// TestPSServerReleasesEveryReceive holds the parameter server to the Rank
// contract in every mode: each payload it receives — gradients and the
// asynchronous server's TagDone markers alike — is released exactly once.
// Each mode's case nests one subtest named for how that server stops:
// after StepsPerWorker gradients ("steps") or after every worker's TagDone
// ("until-done").
func TestPSServerReleasesEveryReceive(t *testing.T) {
	for _, cfg := range []ServerConfig{
		{Mode: PSSync, StepsPerWorker: 3},
		{Mode: PSAsync},
		{Mode: PSStale, Staleness: 1, StepsPerWorker: 3},
	} {
		stop := "steps"
		if cfg.Mode == PSAsync {
			stop = "until-done"
		}
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			t.Run(stop, func(t *testing.T) {
				const workers = 2
				ds := training.SyntheticClassification(64, 4, []int{1, 6, 6}, 0.2, 23)
				server := &countingRank{}
				_, _, err := mpi.Run(workers+1, mpi.Aries(), func(r *mpi.Rank) error {
					e := testModel(5)
					if r.ID() == 0 {
						server.Rank = r
						return RunPSServer(context.Background(), server, training.NewFusedSGD(0.05),
							e.Network().ParamSlab().Data(), cfg)
					}
					w := NewCentralizedWorker(e, r)
					s := training.NewShardSampler(ds, 8, r.ID()-1, workers, 29)
					for i := 0; i < 3; i++ {
						if _, err := w.Train(context.Background(), s.Next().Feeds()); err != nil {
							return err
						}
					}
					if cfg.Mode == PSAsync {
						return w.Finish()
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if server.recvs == 0 || server.recvs != server.releases {
					t.Fatalf("server received %d payloads and released %d", server.recvs, server.releases)
				}
			})
		})
	}
}

// TestDecentralizedSchemesRun exercises the gossip, averaging and sparse
// wrappers end to end on the simulated cluster.
func TestDecentralizedSchemesRun(t *testing.T) {
	ds := training.SyntheticClassification(192, 4, []int{1, 6, 6}, 0.2, 17)
	mk := map[string]func(d *training.Driver, r *mpi.Rank) training.Optimizer{
		"dpsgd":  func(d *training.Driver, r *mpi.Rank) training.Optimizer { return NewNeighborAveraging(d, r) },
		"mavg":   func(d *training.Driver, r *mpi.Rank) training.Optimizer { return NewModelAveraging(d, r, 2) },
		"sparse": func(d *training.Driver, r *mpi.Rank) training.Optimizer { return NewSparseDecentralized(d, r, 0.25) },
	}
	for name, build := range mk {
		t.Run(name, func(t *testing.T) {
			const nodes = 4
			_, world, err := mpi.Run(nodes, mpi.Aries(), func(r *mpi.Rank) error {
				e := testModel(5)
				d := training.NewDriver(e, training.NewFusedSGD(0.05))
				opt := build(d, r)
				s := training.NewShardSampler(ds, 8, r.ID(), nodes, 19)
				for i := 0; i < 4; i++ {
					b := s.Next()
					if b == nil {
						break
					}
					if _, err := opt.Train(context.Background(), b.Feeds()); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if world.Volume.Messages() == 0 {
				t.Fatal("scheme moved no data")
			}
		})
	}
}

// TestReceiversCheckLengths sends a payload one value short and one value
// long to every receive path that takes a vector of the model's length:
// the parameter server in each mode, the parameter-server worker and
// DPSGD. Each receiver returns an error rather than panicking or
// truncating.
func TestReceiversCheckLengths(t *testing.T) {
	ctx := context.Background()
	ds := training.SyntheticClassification(16, 4, []int{1, 6, 6}, 0.2, 3)
	feeds := training.NewShardSampler(ds, 8, 0, 1, 1).Next().Feeds()
	n := testModel(5).Network().ParamSlab().Size()
	server := func(mode PSMode) func(r Rank, bad []float32) error {
		return func(r Rank, bad []float32) error {
			if r.ID() == 1 {
				return r.Send(0, TagGrad, bad, mpi.SimActual)
			}
			return RunPSServer(ctx, r, training.NewFusedSGD(0.05), testModel(5).Network().ParamSlab().Data(),
				ServerConfig{Mode: mode, Staleness: 1, StepsPerWorker: 1})
		}
	}
	for _, c := range []struct {
		name     string
		receiver int
		run      func(r Rank, bad []float32) error
	}{
		{"ps/sync", 0, server(PSSync)},
		{"ps/async", 0, server(PSAsync)},
		{"ps/stale", 0, server(PSStale)},
		{"ps/worker", 1, func(r Rank, bad []float32) error {
			if r.ID() == 0 {
				if _, err := r.Recv(ctx, 1); err != nil {
					return err
				}
				return r.Send(1, TagGrad, bad, mpi.SimActual)
			}
			_, err := NewCentralizedWorker(testModel(5), r).Train(ctx, feeds)
			return err
		}},
		{"dpsgd", 0, func(r Rank, bad []float32) error {
			if r.ID() == 1 {
				if _, err := r.Recv(ctx, 0); err != nil {
					return err
				}
				return r.Send(0, 0, bad, mpi.SimActual)
			}
			d := training.NewDriver(testModel(5), training.NewFusedSGD(0.05))
			_, err := NewNeighborAveraging(d, r).Train(ctx, feeds)
			return err
		}},
	} {
		for _, delta := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s/%+d", c.name, delta), func(t *testing.T) {
				var got error
				returned := false
				mpi.Run(2, mpi.Aries(), func(r *mpi.Rank) error {
					err := c.run(r, make([]float32, n+delta))
					if r.ID() == c.receiver {
						got, returned = err, true
					}
					return err
				})
				if !returned {
					t.Fatalf("the receiver panicked on a %d-value payload", n+delta)
				}
				if got == nil {
					t.Fatalf("the receiver accepted a %d-value payload for %d values", n+delta, n)
				}
			})
		}
	}
}

// failingRank fails its failAt-th receive, and keeps a copy of net's
// parameter slab as it stood at its first send.
type failingRank struct {
	Rank
	net           *executor.Network
	failAt, recvs int
	atFirstSend   []float32
}

var errInjected = errors.New("injected receive failure")

func (f *failingRank) Send(dst, tag int, data []float32, simBytes int64) error {
	if f.atFirstSend == nil {
		f.atFirstSend = slices.Clone(f.net.ParamSlab().Data())
	}
	return f.Rank.Send(dst, tag, data, simBytes)
}

func (f *failingRank) Recv(ctx context.Context, src int) (Message, error) {
	if f.recvs++; f.recvs == f.failAt {
		return Message{}, errInjected
	}
	return f.Rank.Recv(ctx, src)
}

// TestModelAveragingFailureKeepsParameters fails rank 0's first and second
// receive of a two-rank model-averaging step (the second comes after the
// reduce-scatter has added into the average) and checks that Train returns
// the error with the rank's parameters bit for bit as its local step left
// them.
func TestModelAveragingFailureKeepsParameters(t *testing.T) {
	ds := training.SyntheticClassification(16, 4, []int{1, 6, 6}, 0.2, 3)
	for _, failAt := range []int{1, 2} {
		t.Run(fmt.Sprintf("recv%d", failAt), func(t *testing.T) {
			var got error
			var f *failingRank
			mpi.Run(2, mpi.Aries(), func(r *mpi.Rank) error {
				e := testModel(5)
				var rank Rank = r
				if r.ID() == 0 {
					f = &failingRank{Rank: r, net: e.Network(), failAt: failAt}
					rank = f
				}
				opt := NewModelAveraging(training.NewDriver(e, training.NewFusedSGD(0.05)), rank, 1)
				_, err := opt.Train(context.Background(), training.NewShardSampler(ds, 8, r.ID(), 2, 1).Next().Feeds())
				if r.ID() == 0 {
					got = err
				}
				return err
			})
			if !errors.Is(got, errInjected) {
				t.Fatalf("Train returned %v, want the injected failure", got)
			}
			for i, v := range f.net.ParamSlab().Data() {
				if math.Float32bits(v) != math.Float32bits(f.atFirstSend[i]) {
					t.Fatalf("parameter %d: %g after the failed average, %g after the local step", i, v, f.atFirstSend[i])
				}
			}
		})
	}
}
