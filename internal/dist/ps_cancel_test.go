package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"deep500/internal/mpi"
	"deep500/internal/training"
)

// TestPSServerCancelMidRound pins the prompt-cancellation contract: a
// parameter server blocked mid-round on a gradient that will never arrive
// must unblock on context cancellation, not wait for the next message (the
// old per-round ctx check deadlocked here forever). One worker sends a
// single gradient and stops, the other never sends, so the sync server is
// parked inside a receive when the cancel lands.
func TestPSServerCancelMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	serverErr := make(chan error, 1)
	_, _, err := mpi.Run(3, mpi.Aries(), func(r *mpi.Rank) error {
		switch r.ID() {
		case 0:
			e := testModel(7)
			err := RunPSServer(ctx, r, training.NewFusedSGD(0.05),
				e.Network().ParamSlab().Data(),
				ServerConfig{Mode: PSSync, StepsPerWorker: 8})
			serverErr <- err
		case 1:
			e := testModel(7)
			p := e.Network().ParamSlab().Data()
			if err := r.Send(0, TagGrad, make([]float32, len(p)), mpi.SimActual); err != nil {
				return err
			}
			// Never complete the round: worker 2 stays silent, so the server
			// blocks awaiting its gradient. Cancel once the server is parked.
			time.Sleep(50 * time.Millisecond)
			cancel()
		case 2:
			// Silent worker: sends nothing.
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-serverErr; !errors.Is(got, context.Canceled) {
		t.Fatalf("server returned %v, want context.Canceled", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — server did not unblock promptly", elapsed)
	}
}

// TestPSServerCancelUntilDone covers the done-counting async server the job
// control plane runs: blocked in an any-source receive with no traffic at all, a cancel
// must return promptly with the context error.
func TestPSServerCancelUntilDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	serverErr := make(chan error, 1)
	_, _, err := mpi.Run(2, mpi.Aries(), func(r *mpi.Rank) error {
		if r.ID() == 0 {
			e := testModel(11)
			serverErr <- RunPSServer(ctx, r, training.NewFusedSGD(0.05),
				e.Network().ParamSlab().Data(),
				ServerConfig{Mode: PSAsync, UntilDone: true})
			return nil
		}
		time.Sleep(30 * time.Millisecond)
		cancel()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-serverErr; !errors.Is(got, context.Canceled) {
		t.Fatalf("server returned %v, want context.Canceled", got)
	}
}

// TestPSServerUntilDoneServes checks the done-counting protocol end to end
// on the simulator: workers push a handful of tagged gradients, send
// TagDone, and the server exits cleanly after all finish markers.
func TestPSServerUntilDoneServes(t *testing.T) {
	const workers = 2
	_, _, err := mpi.Run(workers+1, mpi.Aries(), func(r *mpi.Rank) error {
		e := testModel(13)
		if r.ID() == 0 {
			return RunPSServer(context.Background(), r, training.NewFusedSGD(0.05),
				e.Network().ParamSlab().Data(),
				ServerConfig{Mode: PSAsync, UntilDone: true})
		}
		w := NewCentralizedWorker(e, r)
		ds := training.SyntheticClassification(64, 4, []int{1, 6, 6}, 0.2, 23)
		s := NewDistributedSampler(ds, 8, r.ID()-1, workers, 29)
		for i := 0; i < 3; i++ {
			b := s.Next()
			if b == nil {
				s.Reset()
				b = s.Next()
			}
			if _, err := w.Train(context.Background(), b.Feeds()); err != nil {
				return err
			}
		}
		w.Finish()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPSServerUntilDoneRequiresAsync pins the config validation.
func TestPSServerUntilDoneRequiresAsync(t *testing.T) {
	_, _, err := mpi.Run(2, mpi.Aries(), func(r *mpi.Rank) error {
		if r.ID() != 0 {
			return nil
		}
		e := testModel(3)
		return RunPSServer(context.Background(), r, training.NewFusedSGD(0.1),
			e.Network().ParamSlab().Data(), ServerConfig{Mode: PSSync, UntilDone: true})
	})
	if err == nil {
		t.Fatal("UntilDone with PSSync must be rejected")
	}
}
