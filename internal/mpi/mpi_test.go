package mpi

import (
	"context"
	"errors"
	"strings"
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

// TestRunStopsTheWorld: when one rank fails, by returning an error or by
// panicking, while its peers wait in Recv for messages it will never send,
// Run returns that failure promptly, and each peer's receive returns an
// error wrapping it. Run runs under a guard, so a world that keeps waiting
// fails the test instead of hanging it.
func TestRunStopsTheWorld(t *testing.T) {
	errFailed := errors.New("rank failed")
	for _, c := range []struct {
		name string
		fail func() error
		want string
	}{
		{"error", func() error { return errFailed }, "mpi: rank 1: rank failed"},
		{"panic", func() error { panic(errFailed) }, "mpi: rank 1 panicked: rank failed"},
	} {
		t.Run(c.name, func(t *testing.T) {
			peerErrs := make([]error, 3)
			done := make(chan error, 1)
			go func() {
				_, _, err := Run(3, noCost(), func(r *Rank) error {
					src := 1
					switch r.ID() {
					case 1:
						time.Sleep(20 * time.Millisecond) // let the peers block first
						return c.fail()
					case 2:
						src = AnySource
					}
					_, err := r.Recv(context.Background(), src)
					peerErrs[r.ID()] = err
					return err
				})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || err.Error() != c.want {
					t.Fatalf("Run returned %v, want %q", err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run still waiting 5 s after a rank failed")
			}
			for _, id := range []int{0, 2} {
				if err := peerErrs[id]; err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("rank %d's receive returned %v, want an error naming %q", id, err, c.want)
				}
			}
			if c.name == "error" && !errors.Is(peerErrs[0], errFailed) {
				t.Errorf("rank 0's receive error %v does not wrap the failure", peerErrs[0])
			}
		})
	}
}

// TestRunRejectsEmptyWorld: a world of fewer than one rank is an error, and
// no rank runs.
func TestRunRejectsEmptyWorld(t *testing.T) {
	for _, size := range []int{0, -1} {
		_, _, err := Run(size, noCost(), func(*Rank) error {
			t.Errorf("a rank ran in a world of size %d", size)
			return nil
		})
		if err == nil {
			t.Errorf("Run(%d, …) returned no error", size)
		}
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
	w := newWorld(4, noCost())
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
