package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
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

// recv is a blocking receive that reports a failure through t.Error (safe
// from rank goroutines) and returns the message.
func recv(t *testing.T, r *TCPRank, src int) dist.Message {
	t.Helper()
	m, err := r.Recv(context.Background(), src)
	if err != nil {
		t.Error(err)
	}
	return m
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
			errs[i] = body(r)
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
			if err := r.Send(dst, 10+r.ID(), []float32{float32(r.ID()), float32(dst)}, mpi.SimActual); err != nil {
				return err
			}
		}
		for i := 0; i < n-1; i++ {
			m, err := r.Recv(context.Background(), dist.AnySource)
			if err != nil {
				return err
			}
			data, src, tag := m.Data, m.Src, m.Tag
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
// side: an empty, non-nil slice with its tag, and releasing it is
// harmless.
func TestTCPRankEmptyMessage(t *testing.T) {
	ranks := world(t, 2, nil)
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 1 {
			for i, data := range [][]float32{nil, {}, {3}} {
				if err := r.Send(0, 7+i, data, mpi.SimActual); err != nil {
					return err
				}
			}
			return nil
		}
		for _, wantTag := range []int{7, 8} {
			m := recv(t, r, 1)
			data, tag := m.Data, m.Tag
			if data == nil || len(data) != 0 || tag != wantTag {
				t.Errorf("empty message arrived as %#v tag %d, want an empty non-nil slice tag %d", data, tag, wantTag)
			}
			r.Release(data)
		}
		if m := recv(t, r, 1); len(m.Data) != 1 || m.Tag != 9 {
			t.Errorf("message after the empty ones arrived as %v tag %d", m.Data, m.Tag)
		}
		return nil
	})
}

// TestTCPRankFIFO pins per-pair ordering: messages from one source arrive
// in send order.
func TestTCPRankFIFO(t *testing.T) {
	ranks := world(t, 2, nil)
	const msgs = 50
	run(t, ranks, func(r *TCPRank) error {
		if r.ID() == 1 {
			for i := 0; i < msgs; i++ {
				if err := r.Send(0, 0, []float32{float32(i)}, mpi.SimActual); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			got := recv(t, r, 1).Data
			if got[0] != float32(i) {
				t.Errorf("message %d arrived as %g", i, got[0])
			}
		}
		return nil
	})
}

// TestTCPRankRecvCtx pins the receive's cancellation: a parked receive,
// from one source or from any, returns the context's error promptly.
func TestTCPRankRecvCtx(t *testing.T) {
	ranks := world(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := ranks[0].Recv(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Recv returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	if _, err := ranks[1].Recv(ctx2, dist.AnySource); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("any-source Recv returned %v, want deadline exceeded", err)
	}
}

// TestTCPRankRecvTimeout pins the blocking-receive bound: a receive with no
// sender fails as *NetError instead of hanging forever.
func TestTCPRankRecvTimeout(t *testing.T) {
	ranks := world(t, 2, func(o *Options) { o.RecvTimeout = 100 * time.Millisecond })
	_, err := ranks[0].Recv(context.Background(), 1)
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
	r1.Send(0, 0, []float32{1}, mpi.SimActual)
	if got := recv(t, r0, 1).Data; got[0] != 1 {
		t.Fatalf("first incarnation sent %v", got)
	}
	r1.Close() // worker dies

	r1b, err := New(Options{ID: 1, Size: 2, Peers: addrs}) // restarted worker re-dials
	if err != nil {
		t.Fatal(err)
	}
	defer r1b.Close()
	r1b.Send(0, 0, []float32{2}, mpi.SimActual)
	if got := recv(t, r0, 1).Data; got[0] != 2 {
		t.Fatalf("second incarnation sent %v", got)
	}
	r0.Send(1, 0, []float32{3}, mpi.SimActual)
	if got := recv(t, r1b, 0).Data; got[0] != 3 {
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
	r1.Send(0, 0, []float32{1}, mpi.SimActual)
	recv(t, r0, 1)
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
	if err := r0.Send(1, 0, []float32{9}, mpi.SimActual); err != nil {
		t.Fatalf("best-effort send failed: %v", err)
	}
	if s := r0.Stats(); s.Dropped == 0 {
		t.Fatal("dropped send not counted")
	}
}

// TestProtectPassthrough: Protect returns fn's error unchanged and lets a
// panic propagate.
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
	r1.Send(0, 0, []float32{42}, mpi.SimActual)
	if got := recv(t, r0, 1).Data; got[0] != 42 {
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
}

// TestTraceContextPropagation: a sender's trace context stamps every frame
// it puts on the wire, and clearing it stops the stamping. The peer is a
// raw connection, so the test reads the frames exactly as they were sent.
func TestTraceContextPropagation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r0, err := New(Options{ID: 0, Size: 2, Listener: ln, Peers: []string{ln.Addr().String(), ""}})
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	hello := Frame{Type: FrameHello, Src: 1}
	if err := WriteFrame(c, &hello); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][2]uint64{{0xabc, 0xdef}, {0, 0}} {
		r0.SetTraceContext(want[0], want[1])
		if err := r0.Send(1, 0, []float32{1, 2}, mpi.SimActual); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if f.Trace != want[0] || f.Span != want[1] {
			t.Fatalf("frame trace ctx %x/%x, want %x/%x", f.Trace, f.Span, want[0], want[1])
		}
	}
}
