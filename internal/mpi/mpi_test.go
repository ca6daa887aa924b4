package mpi

import (
	"context"
	"testing"
	"time"
)

func noCost() CostModel { return CostModel{} }

// recv is a blocking receive that fails the test on error.
func recv(t *testing.T, r *Rank, src int) Message {
	t.Helper()
	m, err := r.Recv(context.Background(), src)
	if err != nil {
		t.Error(err)
	}
	return m
}

func TestSendRecv(t *testing.T) {
	_, _, err := Run(2, Aries(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, []float32{1, 2, 3}, SimActual)
		} else {
			got := recv(t, r, 0).Data
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	_, _, err := Run(2, noCost(), func(r *Rank) error {
		if r.ID() == 0 {
			buf := []float32{1}
			r.Send(1, 0, buf, SimActual)
			buf[0] = 99 // must not affect the receiver
		} else {
			if got := recv(t, r, 0).Data; got[0] != 1 {
				t.Errorf("message aliased sender buffer: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderFIFO(t *testing.T) {
	_, _, err := Run(2, Aries(), func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 0, []float32{float32(i)}, SimActual)
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := recv(t, r, 0).Data; got[0] != float32(i) {
					t.Errorf("out of order: %v at %d", got, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeScalesWithBytes(t *testing.T) {
	cost := CostModel{Latency: time.Microsecond, Bandwidth: 1e9}
	timeFor := func(bytes int64) time.Duration {
		makespan, _, err := Run(2, cost, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, 0, []float32{0}, bytes)
			} else {
				recv(t, r, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	small := timeFor(1000)
	large := timeFor(100_000_000)
	// 100 MB at 1 GB/s = 100 ms ≫ small
	if large < 50*time.Millisecond || large < 10*small {
		t.Fatalf("large=%v small=%v", large, small)
	}
}

func TestCommunicationVolumeAccounting(t *testing.T) {
	_, w, err := Run(2, Aries(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float32, 256), SimActual) // 1024 B
		} else {
			recv(t, r, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Volume.Sent() != 1024 {
		t.Fatalf("sent = %d", w.Volume.Sent())
	}
	if w.Volume.Received() != 1024 {
		t.Fatalf("received = %d", w.Volume.Received())
	}
}

func TestSimulatedBytesDecoupledFromBuffer(t *testing.T) {
	_, w, err := Run(2, Aries(), func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, []float32{1}, 1<<20) // tiny buffer, 1 MiB charged
		} else {
			recv(t, r, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Volume.Sent() != 1<<20 {
		t.Fatalf("charged %d", w.Volume.Sent())
	}
}

func TestRecvAny(t *testing.T) {
	_, _, err := Run(4, Aries(), func(r *Rank) error {
		if r.ID() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				m := recv(t, r, AnySource)
				data, src := m.Data, m.Src
				if int(data[0]) != src {
					t.Errorf("payload %v from %d", data, src)
				}
				seen[src] = true
			}
			if len(seen) != 3 {
				t.Errorf("sources %v", seen)
			}
		} else {
			r.Send(0, 0, []float32{float32(r.ID())}, SimActual)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestServerQueueingEmergesFromTimestamps(t *testing.T) {
	// Many clients hitting one server must serialize: the makespan grows
	// roughly linearly with client count (the paper's ASGD observation ¶).
	cost := CostModel{Latency: 10 * time.Microsecond, Bandwidth: 1e9, PerMessageCPU: 100 * time.Microsecond}
	makespanFor := func(p int) time.Duration {
		ms, _, err := Run(p, cost, func(r *Rank) error {
			if r.ID() == 0 {
				for i := 1; i < p; i++ {
					m := recv(t, r, AnySource)
					data, src := m.Data, m.Src
					r.Send(src, 0, data, SimActual)
				}
			} else {
				r.Send(0, 0, make([]float32, 1000), SimActual)
				recv(t, r, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	m4 := makespanFor(4)
	m16 := makespanFor(16)
	if m16 < 2*m4 {
		t.Fatalf("no queueing effect: 4 ranks %v, 16 ranks %v", m4, m16)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	_, _, err := Run(2, noCost(), func(r *Rank) error {
		if r.ID() == 1 {
			panic("boom")
		}
		r.Send(1, 0, []float32{1}, SimActual)
		return nil
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}

// TestInvalidPeerIsAnError: a send to or a receive from a rank outside the
// world returns an error instead of panicking.
func TestInvalidPeerIsAnError(t *testing.T) {
	_, _, err := Run(2, noCost(), func(r *Rank) error {
		if err := r.Send(2, 0, []float32{1}, SimActual); err == nil {
			t.Error("send to rank 2 of 2 succeeded")
		}
		if err := r.Send(-1, 0, nil, SimActual); err == nil {
			t.Error("send to rank -1 succeeded")
		}
		if _, err := r.Recv(context.Background(), 5); err == nil {
			t.Error("receive from rank 5 of 2 succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvHonorsContext: a receive blocked on a message that never comes,
// from one source or from any, returns the context's error once it ends.
func TestRecvHonorsContext(t *testing.T) {
	_, _, err := Run(2, noCost(), func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		for _, src := range []int{1, AnySource} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			_, err := r.Recv(ctx, src)
			cancel()
			if err != context.DeadlineExceeded {
				t.Errorf("src %d: Recv returned %v, want deadline exceeded", src, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnyIsRoundRobin: with every source holding messages, consecutive
// any-source receives rotate over the sources instead of draining the
// lowest-numbered one first.
func TestRecvAnyIsRoundRobin(t *testing.T) {
	w := NewWorld(4, noCost())
	ranks := make([]*Rank, 4)
	for i := range ranks {
		ranks[i] = &Rank{world: w, id: i}
	}
	for src := 1; src < 4; src++ {
		for k := 0; k < 2; k++ {
			ranks[src].Send(0, k, []float32{float32(src)}, SimActual)
		}
	}
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, recv(t, ranks[0], AnySource).Src)
	}
	want := []int{1, 2, 3, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("any-source order %v, want %v", order, want)
		}
	}
}
