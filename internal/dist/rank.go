// Package dist implements Deep500 Level 3 (paper §IV-F): distributed
// optimizers as thin wrappers over a point-to-point fabric (Rank) and the
// one all-reduce built on it (AllreduceSum), which the internal/mpi
// simulator and the internal/transport TCP fabric both run. The same
// base optimizer can be wrapped in a consistent decentralized scheme
// (allreduce DSGD), neighbor-gossip DPSGD, periodic model averaging, a
// sparsified decentralized scheme with error feedback, or a centralized
// parameter server in synchronous, asynchronous and stale-synchronous
// modes — the paper's Listing 8/9 schemes, runnable on the simulated
// cluster.
package dist

import (
	"context"
	"fmt"

	"deep500/internal/kernels"
	"deep500/internal/mpi"
)

// Rank is the communication fabric one distributed process (or simulated
// rank) speaks: point-to-point sends and receives, nothing more. Two
// implementations exist — the in-process *mpi.Rank simulator (goroutine
// mailboxes under an α–β virtual clock) and the networked
// internal/transport TCP rank (real sockets, length-prefixed frames) — and
// every optimizer and collective in this package runs unchanged over
// either, which is how the networked stack is validated against the
// simulator.
//
// Failures are values: a send or receive the fabric cannot complete returns
// an error (transport.NetError on TCP), and a receive returns ctx.Err()
// when its context ends first. A Rank is owned by one goroutine.
type Rank interface {
	// ID returns this rank's index in [0, Size).
	ID() int
	// Size returns the world size.
	Size() int
	// Send transmits data to dst with a message tag. The fabric does not
	// retain data: the caller may overwrite it as soon as Send returns.
	// simBytes charges a scaled wire size on the simulated fabric (pass
	// mpi.SimActual for the real size); the TCP fabric ignores it, its bytes
	// are real.
	Send(dst, tag int, data []float32, simBytes int64) error
	// Recv blocks for the next message from src — from any rank,
	// round-robin fair, when src is AnySource. The payload belongs to the
	// caller, which may keep it, overwrite it, or hand it back with Release.
	Recv(ctx context.Context, src int) (Message, error)
	// Release gives a received payload back for reuse by a later receive.
	// It is optional; after it the caller must not touch the slice, and it
	// must pass the slice exactly as received, at most once. A no-op on the
	// simulator.
	Release(data []float32)
}

// Message is one received payload with its source rank and tag.
type Message = mpi.Message

// AnySource, passed as Recv's src, receives from whichever rank is ready.
const AnySource = mpi.AnySource

// Message tags of the parameter-server wire protocol (frames between a
// CentralizedWorker and RunPSServer).
const (
	// TagGrad marks a gradient push; the server replies with parameters.
	TagGrad = 0
	// TagDone marks a worker's final message in done-counting mode
	// (ServerConfig.UntilDone): no gradient, no reply expected.
	TagDone = 1
)

// checkLen fails a received m that does not hold exactly want values.
func checkLen(r Rank, m Message, want int) error {
	if len(m.Data) == want {
		return nil
	}
	return fmt.Errorf("dist: rank %d got %d values from rank %d, want %d", r.ID(), len(m.Data), m.Src, want)
}

// recvLen is r.Recv followed by checkLen.
func recvLen(ctx context.Context, r Rank, src, want int) (Message, error) {
	m, err := r.Recv(ctx, src)
	if err == nil {
		err = checkLen(r, m, want)
	}
	return m, err
}

// AllreduceSum sums data elementwise across all ranks of r, in place: the
// bandwidth-optimal ring, or recursive doubling when algo asks for it and
// the world size is a power of two. Both fabrics run exactly this code, so
// their results agree bit for bit. simBytes charges the whole vector's
// simulated wire size (mpi.SimActual: the real size); each message is
// charged its share of it. Every received payload is released as soon as
// it has been consumed, so a warm all-reduce on TCP allocates nothing. On
// error data is left partially reduced.
func AllreduceSum(ctx context.Context, r Rank, algo mpi.AllreduceAlgo, data []float32, simBytes int64) error {
	return allreduce(ctx, r, algo, data, simBytes, 1)
}

// AllreduceMean is AllreduceSum followed by a division by the world size,
// with the scaling folded into the reduction: each element is multiplied by
// 1/p once, where its sum is complete (the ring's owner of a chunk before the
// allgather, every rank after recursive doubling's last exchange), and every
// rank then holds that one product. The bits are those of summing and then
// multiplying each element by 1/p on every rank.
func AllreduceMean(ctx context.Context, r Rank, algo mpi.AllreduceAlgo, data []float32, simBytes int64) error {
	return allreduce(ctx, r, algo, data, simBytes, 1/float32(r.Size()))
}

// allreduce sums data across the ranks of r and multiplies each complete
// sum by scale.
func allreduce(ctx context.Context, r Rank, algo mpi.AllreduceAlgo, data []float32, simBytes int64, scale float32) error {
	p := r.Size()
	if p == 1 {
		return nil
	}
	if simBytes == mpi.SimActual {
		simBytes = int64(len(data)) * 4
	}
	if algo == mpi.AllreduceDoubling && p&(p-1) == 0 {
		return doublingAllreduce(ctx, r, data, simBytes, scale)
	}
	return ringAllreduce(ctx, r, data, simBytes, scale)
}

// ringAllreduce is reduce-scatter then allgather over a logical ring on the
// p chunks data[c·n/p : (c+1)·n/p]. The last reduce-scatter step completes
// the chunk this rank owns, and scales it before the allgather sends it.
func ringAllreduce(ctx context.Context, r Rank, data []float32, simBytes int64, scale float32) error {
	p, id, n := r.Size(), r.ID(), len(data)
	chunk := func(c int) []float32 { return data[c*n/p : (c+1)*n/p] }
	chunkBytes := func(c int) int64 {
		if n == 0 {
			return simBytes / int64(p)
		}
		return simBytes * int64(len(chunk(c))) / int64(n)
	}
	next, prev := (id+1)%p, (id-1+p)%p
	// exchange sends chunk out to next, then adds the chunk arriving from
	// prev into chunk in and scales the sums by s, or copies it when add is
	// off.
	exchange := func(out, in int, add bool, s float32) error {
		if err := r.Send(next, 0, chunk(out), chunkBytes(out)); err != nil {
			return err
		}
		dst := chunk(in)
		m, err := recvLen(ctx, r, prev, len(dst))
		if err != nil {
			return err
		}
		if add {
			kernels.AddScaled(dst, m.Data, s)
		} else {
			copy(dst, m.Data)
		}
		r.Release(m.Data)
		return nil
	}
	// Reduce-scatter: after p-1 steps, rank i holds the full sum of chunk
	// (i+1) mod p.
	for step := 0; step < p-1; step++ {
		s := float32(1)
		if step == p-2 {
			s = scale
		}
		if err := exchange((id-step+p)%p, (id-step-1+p)%p, true, s); err != nil {
			return err
		}
	}
	// Allgather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		if err := exchange((id-step+1+p)%p, (id-step+p)%p, false, 1); err != nil {
			return err
		}
	}
	return nil
}

// doublingAllreduce is log2(p) exchange-and-add steps on the full vector;
// the last one scales the complete sums.
func doublingAllreduce(ctx context.Context, r Rank, data []float32, simBytes int64, scale float32) error {
	for mask := 1; mask < r.Size(); mask <<= 1 {
		partner := r.ID() ^ mask
		if err := r.Send(partner, 0, data, simBytes); err != nil {
			return err
		}
		m, err := recvLen(ctx, r, partner, len(data))
		if err != nil {
			return err
		}
		s := float32(1)
		if mask<<1 >= r.Size() {
			s = scale
		}
		kernels.AddScaled(data, m.Data, s)
		r.Release(m.Data)
	}
	return nil
}
