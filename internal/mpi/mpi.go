// Package mpi is the message-passing substrate of Deep500-Go's Level 3. It
// stands in for the MPI over a Cray Aries network that the paper's
// evaluation ran on, which one host cannot provide: ranks are goroutines
// that exchange *real data* through in-memory mailboxes — so distributed
// algorithms are executed for real and can be validated bit-for-bit against
// serial execution — while every operation also advances a per-rank
// *virtual clock* under an α–β (latency-bandwidth) network cost model.
// Virtual time yields scaling curves for node counts far beyond the host
// machine (the paper runs up to 256 nodes), with contention effects such as
// parameter-server queueing emerging naturally from message timestamps.
//
// A Rank offers only point-to-point Send and Recv (the dist.Rank contract)
// plus the virtual clock. The one all-reduce, the ring, lives above that
// contract in internal/dist, so the simulator and the TCP fabric run the
// same code.
//
// The first rank to fail stops the world: Run records it, every rank
// waiting in Recv gets an error naming it, and Run returns it.
package mpi

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deep500/internal/metrics"
)

// CostModel parameterizes the simulated network and node.
type CostModel struct {
	// Latency is α: per-message startup cost.
	Latency time.Duration
	// Bandwidth is the per-link bandwidth in bytes/second (1/β).
	Bandwidth float64
	// SendOverhead is the CPU time a sender is busy per message (LogP "o").
	SendOverhead time.Duration
	// HostDeviceBytesPerSecond models the synchronous GPU↔host copy the
	// paper notes reference implementations pay before communicating
	// (§IV-F); 0 disables the charge.
	HostDeviceBandwidth float64
	// PerMessageCPU is extra per-message processing (serialization,
	// Python/NumPy conversion in the paper's reference optimizers). This is
	// the knob that separates "Python profile" from "C++ profile" codes.
	PerMessageCPU time.Duration
}

// Aries returns a cost model loosely calibrated to the Cray Aries
// interconnect of Piz Daint (the paper's testbed): ~1.5 µs latency,
// ~10 GB/s per-link bandwidth.
func Aries() CostModel {
	return CostModel{
		Latency:      1500 * time.Nanosecond,
		Bandwidth:    10e9,
		SendOverhead: 500 * time.Nanosecond,
	}
}

// transferSeconds is the α+βn wire time for n bytes.
func (c CostModel) transferSeconds(bytes int64) float64 {
	s := c.Latency.Seconds()
	if c.Bandwidth > 0 {
		s += float64(bytes) / c.Bandwidth
	}
	return s
}

// SimActual charges the actual buffer size on the wire.
const SimActual int64 = -1

// AllreduceAlgo names an all-reduce algorithm. dist.AllreduceSum runs only
// the ring, so nothing reads it: it stays because the benchmark harness
// passes AllreduceRing to dist.NewConsistentDecentralized.
type AllreduceAlgo int

// AllreduceRing is the bandwidth-optimal ring: reduce-scatter then
// allgather, 2(p-1) steps on n/p chunks.
const AllreduceRing AllreduceAlgo = 0

// AnySource, passed as Recv's src, receives from whichever rank has a
// message ready, round-robin fair across sources.
const AnySource = -1

// Message is one received payload with its source rank and tag.
type Message struct {
	Data     []float32
	Src, Tag int
}

type message struct {
	data    []float32
	tag     int
	arrival float64 // virtual arrival time at the receiver (seconds)
}

// World is a communicator: size ranks and their inboxes.
type World struct {
	size    int
	cost    CostModel
	inboxes []*Mailbox[message]
	// Volume aggregates traffic over all ranks.
	Volume *metrics.CommunicationVolume
	// failed is closed once err holds the first rank failure.
	failOnce sync.Once
	failed   chan struct{}
	err      error
}

// newWorld creates a communicator of size ≥ 1 ranks.
func newWorld(size int, cost CostModel) *World {
	w := &World{size: size, cost: cost, Volume: new(metrics.CommunicationVolume), failed: make(chan struct{})}
	w.inboxes = make([]*Mailbox[message], size)
	for i := range w.inboxes {
		w.inboxes[i] = NewMailbox[message](size)
	}
	return w
}

// fail records err as the world's failure unless one is recorded already,
// and wakes every rank waiting in Recv.
func (w *World) fail(err error) {
	w.failOnce.Do(func() { w.err = err; close(w.failed) })
}

// Rank is one process of the world. It implements dist.Rank. All methods
// must be called only from the goroutine that owns the rank.
type Rank struct {
	world *World
	id    int
	clock float64 // virtual seconds
	// SentBytes counts bytes this rank charged to the network.
	SentBytes int64
}

// ID returns the rank index; Size the world size.
func (r *Rank) ID() int   { return r.id }
func (r *Rank) Size() int { return r.world.size }

// Time returns the rank's current virtual time.
func (r *Rank) Time() time.Duration { return time.Duration(r.clock * float64(time.Second)) }

// Compute advances the virtual clock by a simulated computation of duration
// d (e.g. a forward+backward pass measured or modeled elsewhere).
func (r *Rank) Compute(d time.Duration) { r.clock += d.Seconds() }

// chargeHostCopy adds the GPU↔host staging cost for n bytes, if modeled.
func (r *Rank) chargeHostCopy(bytes int64) {
	if r.world.cost.HostDeviceBandwidth > 0 {
		r.clock += float64(bytes) / r.world.cost.HostDeviceBandwidth
	}
}

// Send transmits data to dst with a message tag. simBytes is the *charged*
// wire size; pass SimActual to charge the real buffer size. The data slice
// is copied, so the caller may reuse it at once.
func (r *Rank) Send(dst, tag int, data []float32, simBytes int64) error {
	if dst < 0 || dst >= r.world.size {
		return fmt.Errorf("mpi: rank %d send to invalid rank %d", r.id, dst)
	}
	if simBytes == SimActual {
		simBytes = int64(len(data)) * 4
	}
	cost := r.world.cost
	r.clock += cost.SendOverhead.Seconds() + cost.PerMessageCPU.Seconds()
	r.chargeHostCopy(simBytes)
	arrival := r.clock + cost.transferSeconds(simBytes)
	cp := make([]float32, len(data))
	copy(cp, data)
	r.world.inboxes[dst].Push(r.id, message{data: cp, tag: tag, arrival: arrival})
	r.world.Volume.AddSent(simBytes)
	r.SentBytes += simBytes
	return nil
}

// Recv blocks for the next message from src (or from any rank when src is
// AnySource) and returns it; the virtual clock advances to at least the
// message's arrival time. It returns ctx.Err() if ctx ends first, and an
// error wrapping the world's failure if a rank fails first. The payload
// belongs to the caller.
func (r *Rank) Recv(ctx context.Context, src int) (Message, error) {
	if src != AnySource && (src < 0 || src >= r.world.size) {
		return Message{}, fmt.Errorf("mpi: rank %d receive from invalid rank %d", r.id, src)
	}
	in := r.world.inboxes[r.id]
	for {
		if msg, s, ok := in.Pop(src); ok {
			if msg.arrival > r.clock {
				r.clock = msg.arrival
			}
			r.clock += r.world.cost.PerMessageCPU.Seconds()
			r.chargeHostCopy(int64(len(msg.data)) * 4)
			r.world.Volume.AddReceived(int64(len(msg.data)) * 4)
			return Message{Data: msg.data, Src: s, Tag: msg.tag}, nil
		}
		select {
		case <-in.Wake():
		case <-ctx.Done():
			return Message{}, ctx.Err()
		case <-r.world.failed:
			return Message{}, fmt.Errorf("mpi: rank %d stopped waiting: %w", r.id, r.world.err)
		}
	}
}

// Release is a no-op: the simulator's payloads are ordinary slices the
// receiver keeps.
func (r *Rank) Release([]float32) {}

// Run spawns size rank goroutines executing fn and waits for every one to
// return. The first rank failure, fn returning an error or panicking,
// stops the world: every rank waiting in Recv, now or later, gets an error
// naming it, and Run returns it. Run also returns the maximum virtual time
// across ranks (the simulated makespan). A size below 1 is an error.
func Run(size int, cost CostModel, fn func(r *Rank) error) (time.Duration, *World, error) {
	if size < 1 {
		return 0, nil, fmt.Errorf("mpi: world size %d, want ≥ 1", size)
	}
	w := newWorld(size, cost)
	ranks := make([]*Rank, size)
	var wg sync.WaitGroup
	for i := range ranks {
		r := &Rank{world: w, id: i}
		ranks[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.fail(fmt.Errorf("mpi: rank %d panicked: %v", r.id, p))
				}
			}()
			if err := fn(r); err != nil {
				w.fail(fmt.Errorf("mpi: rank %d: %w", r.id, err))
			}
		}()
	}
	wg.Wait()
	var makespan time.Duration
	for _, r := range ranks {
		if t := r.Time(); t > makespan {
			makespan = t
		}
	}
	return makespan, w, w.err
}
