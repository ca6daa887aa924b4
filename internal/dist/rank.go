package dist

import (
	"context"

	"deep500/internal/mpi"
)

// Rank is the communication fabric one distributed process (or simulated
// rank) speaks: point-to-point sends and receives plus the allreduce
// collective. Two implementations exist — the in-process *mpi.Rank
// simulator (goroutine mailboxes under an α–β virtual clock) and the
// networked internal/transport TCP rank (real sockets, length-prefixed
// frames) — and every optimizer in this package runs unchanged over
// either, which is how the networked stack is validated tolerance-equal
// against the simulator.
//
// simBytes arguments charge a scaled wire size on the simulated fabric
// (pass mpi.SimActual for the real buffer size); the TCP fabric ignores
// them — its bytes are real.
type Rank interface {
	// ID returns this rank's index in [0, Size).
	ID() int
	// Size returns the world size.
	Size() int
	// Send transmits data to dst (tag 0).
	Send(dst int, data []float32, simBytes int64)
	// SendTagged transmits data to dst with a message tag.
	SendTagged(dst int, data []float32, tag int, simBytes int64)
	// Recv blocks for the next message from src and returns its payload.
	// The payload (here and from every other receive method) belongs to the
	// caller, which may keep or overwrite it; on a fabric that is a Releaser
	// the caller may instead give it back with Release once done with it.
	Recv(src int) []float32
	// RecvTagged blocks for the next message from src, returning payload
	// and tag.
	RecvTagged(src int) ([]float32, int)
	// RecvAny blocks for the next message from any rank, returning payload
	// and source.
	RecvAny() ([]float32, int)
	// RecvAnyTagged blocks for the next message from any rank, returning
	// payload, source and tag.
	RecvAnyTagged() ([]float32, int, int)
	// AllreduceSum sums data elementwise across all ranks, in place.
	AllreduceSum(algo mpi.AllreduceAlgo, data []float32, simBytes int64)
}

// CancelableRank is the optional context-aware receive surface of a Rank.
// Fabrics that implement it let a blocked server unblock promptly on
// context cancellation instead of waiting for the next message; both
// *mpi.Rank and transport.TCPRank do, and RunPSServer uses it when
// available.
type CancelableRank interface {
	// RecvCtx is Recv(src) that returns ctx.Err() if the context ends
	// before a message arrives.
	RecvCtx(ctx context.Context, src int) ([]float32, error)
	// RecvAnyCtx is RecvAnyTagged that returns ctx.Err() if the context
	// ends before a message arrives.
	RecvAnyCtx(ctx context.Context) (data []float32, src, tag int, err error)
}

// Message tags of the parameter-server wire protocol (frames between a
// CentralizedWorker and RunPSServer).
const (
	// TagGrad marks a gradient push; the server replies with parameters.
	TagGrad = 0
	// TagDone marks a worker's final message in done-counting mode
	// (ServerConfig.UntilDone): no gradient, no reply expected.
	TagDone = 1
)

// recvCtx receives from src honoring ctx when the fabric supports it;
// otherwise it falls back to the blocking receive (cancellation then takes
// effect at the next message boundary).
func recvCtx(ctx context.Context, r Rank, src int) ([]float32, error) {
	if cr, ok := r.(CancelableRank); ok {
		return cr.RecvCtx(ctx, src)
	}
	return r.Recv(src), nil
}

// recvAnyCtx receives from any rank honoring ctx when the fabric supports
// it, falling back to the blocking receive otherwise.
func recvAnyCtx(ctx context.Context, r Rank) ([]float32, int, int, error) {
	if cr, ok := r.(CancelableRank); ok {
		return cr.RecvAnyCtx(ctx)
	}
	data, src, tag := r.RecvAnyTagged()
	return data, src, tag, nil
}

// Releaser is the optional buffer-return surface of a Rank. A fabric that
// implements it owns a pool of receive buffers: handing a payload obtained
// from one of its receive methods to Release lets a later receive reuse the
// storage, and the caller must not touch the slice afterwards. Releasing is
// never required — an unreleased payload is an ordinary slice the receiver
// keeps for as long as it likes — and fabrics without pooled buffers (the
// simulator) simply do not implement it. transport.TCPRank does, and
// RingAllreduce releases every chunk it has consumed.
type Releaser interface {
	Release(data []float32)
}

// RingAllreduce sums data elementwise across all ranks in place using the
// bandwidth-optimal ring algorithm (reduce-scatter then allgather on n/p
// chunks) over the fabric's point-to-point sends. The chunking and
// reduction order match the simulator's built-in ring, so results agree
// with mpi.Rank.AllreduceSum(mpi.AllreduceRing, ...) operation for
// operation. The TCP fabric routes its AllreduceSum here. Each received
// chunk is handed back to a fabric that is a Releaser as soon as it has been
// reduced or copied, so a warm all-reduce allocates nothing.
func RingAllreduce(r Rank, data []float32) {
	p := r.Size()
	if p == 1 {
		return
	}
	n := len(data)
	chunk := func(c int) []float32 { return data[c*n/p : (c+1)*n/p] }
	rel, _ := r.(Releaser)
	next := (r.ID() + 1) % p
	prev := (r.ID() - 1 + p) % p

	// Reduce-scatter: after p-1 steps, rank i holds the full sum of chunk
	// (i+1) mod p.
	for step := 0; step < p-1; step++ {
		r.Send(next, chunk((r.ID()-step+p)%p), mpi.SimActual)
		in := r.Recv(prev)
		dst := chunk((r.ID() - step - 1 + p) % p)
		for i := range dst {
			dst[i] += in[i]
		}
		if rel != nil {
			rel.Release(in)
		}
	}
	// Allgather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		r.Send(next, chunk((r.ID()-step+1+p)%p), mpi.SimActual)
		in := r.Recv(prev)
		copy(chunk((r.ID()-step+p)%p), in)
		if rel != nil {
			rel.Release(in)
		}
	}
}
