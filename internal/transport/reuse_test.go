package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
)

// TestSendPathGoldenBytes reads what Send actually puts on a socket:
// frame for frame it must be AppendFrame(EncodeVector(..)) with the rank's
// trace context stamped in — across payloads that grow, shrink and empty
// (the write buffer is reused), full precision and quantized.
func TestSendPathGoldenBytes(t *testing.T) {
	for _, bits := range []uint{0, 4} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		r, err := New(Options{ID: 1, Size: 2, Peers: []string{ln.Addr().String()}, QuantizeBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if hello, err := ReadFrame(c); err != nil || hello.Type != FrameHello || hello.Src != 1 {
			t.Fatalf("hello: %+v, %v", hello, err)
		}

		r.SetTraceContext(0xabc, 0xdef)
		for i, n := range []int{3, 1000, 0, 17, 1000} {
			data := make([]float32, n)
			for j := range data {
				data[j] = float32(j%13) - 6.5*float32(i)
			}
			tag := 40 + i
			if err := r.Send(0, tag, data, mpi.SimActual); err != nil {
				t.Fatal(err)
			}

			want := EncodeVector(1, tag, data, bits)
			want.Trace, want.Span = 0xabc, 0xdef
			wire := AppendFrame(nil, &want)
			got := make([]byte, len(wire))
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatalf("bits=%d send %d: %v", bits, i, err)
			}
			if !bytes.Equal(got, wire) {
				t.Fatalf("bits=%d send %d (%d floats): wire bytes differ from AppendFrame(EncodeVector)", bits, i, n)
			}
		}
	}
}

// TestRoundTripAllocatesNothing pins the copy-free frame path: once the
// per-peer write buffer, the receive slab, the mailbox and the receive timer
// exist, a send → blocking receive → release round trip of a parameter-sized
// vector allocates zero bytes.
func TestRoundTripAllocatesNothing(t *testing.T) {
	ranks := world(t, 2, nil)
	data := make([]float32, 1<<16)
	for i := range data {
		data[i] = float32(i)
	}
	roundTrip := func() {
		ranks[0].Send(1, 0, data, mpi.SimActual)
		got := recv(t, ranks[1], 0).Data
		if len(got) != len(data) || got[len(got)-1] != data[len(data)-1] {
			t.Fatalf("received %d floats ending in %g", len(got), got[len(got)-1])
		}
		ranks[1].Release(got)
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	// The runtime itself allocates now and then (a sudog cache refill, a GC
	// worker starting), so the claim is checked on the quietest of a few
	// windows: an allocation on the path would show in every one of them.
	const trips, windows = 100, 5
	best := ^uint64(0)
	for w := 0; w < windows && best != 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < trips; i++ {
			roundTrip()
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best != 0 {
		t.Fatalf("%d warm round trips allocate at least %d B, want 0", trips, best)
	}
	if st := ranks[1].slabs.Stats(); st.Hits < trips {
		t.Fatalf("%d of %d slab requests were served from released slabs", st.Hits, st.Gets)
	}
}

// TestSlabReuseKeepsUnreleasedPayloads is the safety side of slab reuse,
// run under the race detector: every rank of a 3-rank world sends to both
// others concurrently while consuming with any-source receives. Consumers release every
// other payload (so slabs do circulate under the readers) and keep the rest
// forever; what they keep must still hold what was sent when all traffic
// is done — a consumer that never releases stays correct.
func TestSlabReuseKeepsUnreleasedPayloads(t *testing.T) {
	const (
		n    = 3
		msgs = 40
		size = 2048
	)
	ranks := world(t, n, nil)
	var mainDone sync.WaitGroup
	mainDone.Add(n)
	run(t, ranks, func(r *TCPRank) error {
		arrive := sync.OnceFunc(mainDone.Done)
		defer arrive() // a rank that fails early must not strand the others
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			buf := make([]float32, size)
			for i := 0; i < msgs; i++ {
				for dst := 0; dst < n; dst++ {
					if dst == r.ID() {
						continue
					}
					for j := range buf {
						buf[j] = float32(r.ID()*1000 + i)
					}
					// A send fails only if the fabric broke, which fails the
					// receives below too.
					if err := r.Send(dst, i, buf[:size-i], mpi.SimActual); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		type kept struct {
			data     []float32
			src, tag int
		}
		var held []kept
		for i := 0; i < msgs*(n-1); i++ {
			m, err := r.Recv(context.Background(), dist.AnySource)
			if err != nil {
				return err
			}
			data, src, tag := m.Data, m.Src, m.Tag
			if len(data) != size-tag {
				t.Errorf("rank %d: message %d from %d has %d floats", r.ID(), tag, src, len(data))
			}
			if i%2 == 0 {
				r.Release(data)
				continue
			}
			held = append(held, kept{data, src, tag})
		}
		<-sent
		for _, k := range held {
			want := float32(k.src*1000 + k.tag)
			for j, v := range k.data {
				if v != want {
					t.Errorf("rank %d: kept payload %d from %d changed at %d: %g, want %g",
						r.ID(), k.tag, k.src, j, v, want)
					break
				}
			}
		}
		// Whether a reader found a released slab above is up to the scheduler
		// (with one P the senders can finish before any consumer runs). One
		// more exchange, after every rank has done its releases, settles it:
		// these receives must be served from the pool.
		arrive()
		mainDone.Wait()
		for dst := 0; dst < n; dst++ {
			if dst != r.ID() {
				if err := r.Send(dst, 0, make([]float32, size), mpi.SimActual); err != nil {
					return err
				}
			}
		}
		for src := 0; src < n; src++ {
			if src != r.ID() {
				r.Release(recv(t, r, src).Data)
			}
		}
		if st := r.slabs.Stats(); st.Hits == 0 {
			t.Errorf("rank %d: no receive reused a released slab (%d requests)", r.ID(), st.Gets)
		}
		return nil
	})
}

// TestReleaseIsBounded pins the cap on idle slabs: releasing more than
// maxIdleSlabBytes keeps at most that much (plus one slab) pooled.
func TestReleaseIsBounded(t *testing.T) {
	ranks := world(t, 2, nil)
	const slab = 1 << 20 // floats: 4 MiB each
	for i := 0; i < 2*maxIdleSlabBytes/(4*slab); i++ {
		ranks[0].Release(ranks[0].slabs.GetBuf(slab))
	}
	if idle := ranks[0].slabs.FreeBytes(); idle > maxIdleSlabBytes+4*slab {
		t.Fatalf("%d B idle after releasing twice the bound of %d B", idle, maxIdleSlabBytes)
	}
}
