package transport

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
)

// world builds an n-rank loopback fabric and registers cleanup.
func world(t *testing.T, n int, tweak func(*Options)) []*TCPRank {
	t.Helper()
	ranks, err := NewLocalWorld(n, tweak)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, r := range ranks {
			r.Close()
		}
	})
	return ranks
}

// run executes body on every rank concurrently (one goroutine per rank, as
// the ownership contract requires) and fails the test on any error.
func run(t *testing.T, ranks []*TCPRank, body func(r *TCPRank) error) {
	t.Helper()
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, r := range ranks {
		wg.Add(1)
		go func(i int, r *TCPRank) {
			defer wg.Done()
			errs[i] = Protect(func() error { return body(r) })
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// TestTCPRankP2P drives tagged point-to-point traffic over the mesh: every
// rank sends one tagged vector to every other rank and receives one back,
// checking payload, source and tag fidelity.
func TestTCPRankP2P(t *testing.T) {
	const n = 3
	ranks := world(t, n, nil)
	run(t, ranks, func(r *TCPRank) error {
		for dst := 0; dst < n; dst++ {
			if dst == r.ID() {
				continue
			}
			r.SendTagged(dst, []float32{float32(r.ID()), float32(dst)}, 10+r.ID(), mpi.SimActual)
		}
		for i := 0; i < n-1; i++ {
			data, src, tag := r.RecvAnyTagged()
			if len(data) != 2 || data[0] != float32(src) || data[1] != float32(r.ID()) {
				t.Errorf("rank %d: bad payload %v from %d", r.ID(), data, src)
			}
			if tag != 10+src {
				t.Errorf("rank %d: tag %d from %d, want %d", r.ID(), tag, src, 10+src)
			}
		}
		return nil
	})
}

// TestTCPRankEmptyMessage pins what a zero-length message is on the receive
// side: an empty, non-nil slice with its tag, full precision or quantized,
// and releasing it is harmless.
func TestTCPRankEmptyMessage(t *testing.T) {
	for _, bits := range []uint{0, 4} {
		ranks := world(t, 2, func(o *Options) { o.QuantizeBits = bits })
		run(t, ranks, func(r *TCPRank) error {
			if r.ID() == 1 {
				r.SendTagged(0, nil, 7, mpi.SimActual)
				r.SendTagged(0, []float32{}, 8, mpi.SimActual)
				r.SendTagged(0, []float32{3}, 9, mpi.SimActual)
				return nil
			}
			for _, wantTag := range []int{7, 8} {
				data, tag := r.RecvTagged(1)
				if data == nil || len(data) != 0 || tag != wantTag {
					t.Errorf("bits=%d: empty message arrived as %#v tag %d, want an empty non-nil slice tag %d",
						bits, data, tag, wantTag)
				}
				r.Release(data)
			}
			if data, tag := r.RecvTagged(1); len(data) != 1 || tag != 9 {
				t.Errorf("bits=%d: message after the empty ones arrived as %v tag %d", bits, data, tag)
			}
			return nil
		})
	}
}

// TestTCPRankFIFO pins per-pair ordering: messages from one source arrive
// in send order.
func TestTCPRankFIFO(t *testing.T) {
	ranks := world(t, 2, nil)
	const msgs = 50
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 1 {
			for i := 0; i < msgs; i++ {
				r.Send(0, []float32{float32(i)}, mpi.SimActual)
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got := r.Recv(1)
			if got[0] != float32(i) {
				t.Errorf("message %d arrived as %g", i, got[0])
			}
		}
		return nil
	})
}

// TestTCPRankAllreduceMatchesSimulator is the collective conformance check:
// the TCP ring allreduce must produce bitwise the floats of the simulator's
// ring on the same per-rank inputs (identical chunking and reduction
// order), across world sizes including ones with ragged n/p chunks.
func TestTCPRankAllreduceMatchesSimulator(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for _, vecLen := range []int{1, 7, 64, 1023} {
			inputs := make([][]float32, n)
			for i := range inputs {
				rng := tensor.NewRNG(uint64(100*n + vecLen + i))
				inputs[i] = tensor.RandNormal(rng, 0, 1, vecLen).Data()
			}

			// Simulator reference.
			want := make([][]float32, n)
			if _, _, err := mpi.Run(n, mpi.Aries(), func(r *mpi.Rank) error {
				v := append([]float32(nil), inputs[r.ID()]...)
				r.AllreduceSum(mpi.AllreduceRing, v, mpi.SimActual)
				want[r.ID()] = v
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			ranks := world(t, n, nil)
			got := make([][]float32, n)
			run(t, ranks, func(r *TCPRank) error {
				v := append([]float32(nil), inputs[r.ID()]...)
				r.AllreduceSum(mpi.AllreduceRing, v, mpi.SimActual)
				got[r.ID()] = v
				return nil
			})
			for rank := 0; rank < n; rank++ {
				for i := range want[rank] {
					if want[rank][i] != got[rank][i] {
						t.Fatalf("n=%d len=%d rank %d elem %d: TCP %g vs simulator %g",
							n, vecLen, rank, i, got[rank][i], want[rank][i])
					}
				}
			}
		}
	}
}

// TestTCPRankQuantized runs a quantizing fabric end to end: payloads ship
// as packed 4-bit codes and reconstruct within the codec's error bound.
func TestTCPRankQuantized(t *testing.T) {
	const bits = 4
	ranks := world(t, 2, func(o *Options) { o.QuantizeBits = bits })
	rng := tensor.NewRNG(7)
	data := tensor.RandNormal(rng, 0, 1, 333).Data()
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 1 {
			r.Send(0, data, mpi.SimActual)
			return nil
		}
		got := r.Recv(1)
		if len(got) != len(data) {
			t.Errorf("decoded %d of %d values", len(got), len(data))
			return nil
		}
		var scale float32
		for _, v := range data {
			if a := float32(math.Abs(float64(v))); a > scale {
				scale = a
			}
		}
		halfStep := float64(scale) / float64(uint(1)<<bits-1)
		for i := range got {
			if d := math.Abs(float64(got[i] - data[i])); d > halfStep+1e-6 {
				t.Errorf("value %d error %g exceeds %g", i, d, halfStep)
			}
		}
		// The wire must actually have shrunk: 4-bit codes + scale + header
		// against 4 bytes per float.
		if s := r.Stats(); s.RecvBytes >= int64(4*len(data)) {
			t.Errorf("quantized transfer used %d bytes for %d floats", s.RecvBytes, len(data))
		}
		return nil
	})
}

// TestTCPRankRecvCtx covers the context-aware receive surface RunPSServer
// relies on: cancellation unblocks a parked receive promptly.
func TestTCPRankRecvCtx(t *testing.T) {
	ranks := world(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := ranks[0].RecvCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecvCtx returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, _, _, err := ranks[1].RecvAnyCtx(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RecvAnyCtx returned %v, want deadline exceeded", err)
	}
}

// TestTCPRankRecvTimeout pins the blocking-receive bound: a receive with no
// sender fails as *NetError (via Protect) instead of hanging forever.
func TestTCPRankRecvTimeout(t *testing.T) {
	ranks := world(t, 2, func(o *Options) { o.RecvTimeout = 100 * time.Millisecond })
	err := Protect(func() error {
		ranks[0].Recv(1)
		return nil
	})
	var ne *NetError
	if !errors.As(err, &ne) {
		t.Fatalf("got %v, want *NetError", err)
	}
	if ne.Op != "recv" {
		t.Fatalf("NetError op %q", ne.Op)
	}
}

// TestTCPRankReconnect is the restart path the job control plane depends
// on: a higher rank dies, a replacement dials in, and traffic flows over
// the fresh connection in both directions.
func TestTCPRankReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	r0, err := New(Options{ID: 0, Size: 2, Listener: ln, Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()

	r1, err := New(Options{ID: 1, Size: 2, Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	r1.Send(0, []float32{1}, mpi.SimActual)
	if got := r0.Recv(1); got[0] != 1 {
		t.Fatalf("first incarnation sent %v", got)
	}
	r1.Close() // worker dies

	r1b, err := New(Options{ID: 1, Size: 2, Peers: addrs}) // restarted worker re-dials
	if err != nil {
		t.Fatal(err)
	}
	defer r1b.Close()
	r1b.Send(0, []float32{2}, mpi.SimActual)
	if got := r0.Recv(1); got[0] != 2 {
		t.Fatalf("second incarnation sent %v", got)
	}
	r0.Send(1, []float32{3}, mpi.SimActual)
	if got := r1b.Recv(0); got[0] != 3 {
		t.Fatalf("reply to second incarnation was %v", got)
	}
}

// TestTCPRankBestEffortSend pins the parameter-server protection: with
// BestEffortSend, a send to a dead peer drops (and counts) instead of
// failing the sender.
func TestTCPRankBestEffortSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), ""}
	r0, err := New(Options{ID: 0, Size: 2, Listener: ln, Peers: addrs, BestEffortSend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	r1, err := New(Options{ID: 1, Size: 2, Peers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	r1.Send(0, []float32{1}, mpi.SimActual)
	r0.Recv(1)
	r1.Close()
	// Wait for rank 0's reader to notice the dead connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r0.mu.Lock()
		gone := r0.peers[1].conn == nil
		r0.mu.Unlock()
		if gone || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = Protect(func() error {
		r0.Send(1, []float32{9}, mpi.SimActual)
		return nil
	})
	if err != nil {
		t.Fatalf("best-effort send failed: %v", err)
	}
	if s := r0.Stats(); s.Dropped == 0 {
		t.Fatal("dropped send not counted")
	}
}

// TestProtectPassthrough: Protect converts only *NetError panics.
func TestProtectPassthrough(t *testing.T) {
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("plain")
	if err := Protect(func() error { return sentinel }); err != sentinel {
		t.Fatalf("plain error mangled: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-NetError panic swallowed")
		}
	}()
	Protect(func() error { panic("boom") })
}

// TestNewRejectsBadOptions covers constructor validation.
func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{ID: 2, Size: 2}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := New(Options{ID: 0, Size: 3, Peers: []string{"", "", ""}}); err == nil {
		t.Fatal("missing listener accepted")
	}
	if _, err := New(Options{ID: 1, Size: 2, Peers: nil}); err == nil {
		t.Fatal("missing peer addresses accepted")
	}
}

// TestDialRetryBackoff: a dialer must survive the listener coming up late
// (bounded retry-with-backoff), and fail cleanly when it never does.
func TestDialRetryBackoff(t *testing.T) {
	// Reserve an address, then only start listening after a delay.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	addrs := []string{addr, ""}

	var r0 *TCPRank
	var r0err error
	started := make(chan struct{})
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			r0err = err
			close(started)
			return
		}
		r0, r0err = New(Options{ID: 0, Size: 2, Listener: ln2, Peers: addrs})
		close(started)
	}()

	r1, err := New(Options{ID: 1, Size: 2, Peers: addrs,
		DialTimeout: 200 * time.Millisecond, DialBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial with late listener failed: %v", err)
	}
	defer r1.Close()
	<-started
	if r0err != nil {
		t.Fatal(r0err)
	}
	defer r0.Close()
	r1.Send(0, []float32{42}, mpi.SimActual)
	if got := r0.Recv(1); got[0] != 42 {
		t.Fatalf("got %v", got)
	}
	if r1.Stats().Redials == 0 {
		t.Fatal("no redials recorded despite late listener")
	}

	// And a peer that never appears must fail within the retry budget.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := New(Options{ID: 1, Size: 2, Peers: []string{deadAddr, ""},
		DialTimeout: 50 * time.Millisecond, DialRetries: 2,
		DialBackoff: 10 * time.Millisecond}); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

// TestTCPRankImplementsDistRank pins the structural contract at compile
// and runtime: a TCPRank is usable wherever the simulator rank is.
func TestTCPRankImplementsDistRank(t *testing.T) {
	ranks := world(t, 2, nil)
	var r dist.Rank = ranks[0]
	if r.ID() != 0 || r.Size() != 2 {
		t.Fatal("identity mismatch through the interface")
	}
	if _, ok := r.(dist.CancelableRank); !ok {
		t.Fatal("TCPRank lost the cancelable receive surface")
	}
}

// TestTraceContextPropagation: a sender's trace context stamps its frames
// and surfaces at the receiver via PeerTraceContext; clearing it stops
// the stamping.
func TestTraceContextPropagation(t *testing.T) {
	ranks := world(t, 2, nil)
	if _, _, ok := ranks[1].PeerTraceContext(); ok {
		t.Fatal("fresh rank reports a peer trace context")
	}

	ranks[0].SetTraceContext(0xabc, 0xdef)
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 0 {
			r.Send(1, []float32{1, 2}, 0)
			return nil
		}
		r.Recv(0)
		return nil
	})
	tr, sp, ok := ranks[1].PeerTraceContext()
	if !ok || tr != 0xabc || sp != 0xdef {
		t.Fatalf("peer trace ctx %x/%x ok=%v, want abc/def", tr, sp, ok)
	}
	// Sender side never learns its own context from inbound frames of an
	// untraced peer, and clearing stops stamping.
	ranks[0].SetTraceContext(0, 0)
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 1 {
			r.Send(0, []float32{3}, 0)
			return nil
		}
		r.Recv(1)
		return nil
	})
	if _, _, ok := ranks[0].PeerTraceContext(); ok {
		t.Fatal("untraced frame installed a peer trace context")
	}
}
