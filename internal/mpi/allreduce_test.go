package mpi_test

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
)

// The all-reduce lives in internal/dist, above the point-to-point contract;
// these tests run it on the simulator.

func allreduce(t *testing.T, r *mpi.Rank, data []float32, simBytes int64) {
	t.Helper()
	if err := dist.AllreduceSum(context.Background(), r, data, simBytes); err != nil {
		t.Error(err)
	}
}

func TestAllreduceRingSums(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 7} {
		results := make([][]float32, p)
		_, _, err := mpi.Run(p, mpi.Aries(), func(r *mpi.Rank) error {
			data := make([]float32, 13)
			for i := range data {
				data[i] = float32(r.ID()*100 + i)
			}
			allreduce(t, r, data, mpi.SimActual)
			results[r.ID()] = data
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// expected sum over ranks
		for i := 0; i < 13; i++ {
			var want float32
			for rank := 0; rank < p; rank++ {
				want += float32(rank*100 + i)
			}
			for rank := 0; rank < p; rank++ {
				if math.Abs(float64(results[rank][i]-want)) > 1e-3 {
					t.Fatalf("p=%d rank %d elem %d: %v want %v", p, rank, i, results[rank][i], want)
				}
			}
		}
	}
}

// TestAllreduceWaitsForSlowestRank: a collective is a synchronization
// point on the virtual clock — no rank leaves it before the slowest one
// has entered.
func TestAllreduceWaitsForSlowestRank(t *testing.T) {
	makespan, _, err := mpi.Run(4, mpi.Aries(), func(r *mpi.Rank) error {
		if r.ID() == 0 {
			r.Compute(time.Millisecond) // slowest rank
		}
		before := r.Time()
		allreduce(t, r, []float32{1}, 4)
		if r.ID() != 0 && r.Time() < time.Millisecond {
			t.Errorf("rank %d virtual clock %v did not wait for slow rank (before %v)", r.ID(), r.Time(), before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if makespan < time.Millisecond {
		t.Fatalf("makespan %v", makespan)
	}
}

func TestPropAllreduceEqualsSerialSum(t *testing.T) {
	f := func(seed uint16) bool {
		p := int(seed%6) + 2
		n := int(seed%17) + 1
		results := make([][]float32, p)
		_, _, err := mpi.Run(p, mpi.CostModel{}, func(r *mpi.Rank) error {
			data := make([]float32, n)
			for i := range data {
				data[i] = float32((r.ID()+1)*(i+1)) / 7
			}
			results[r.ID()] = data
			return dist.AllreduceSum(context.Background(), r, data, mpi.SimActual)
		})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var want float64
			for rank := 0; rank < p; rank++ {
				want += float64((rank + 1) * (i + 1))
			}
			want /= 7
			for rank := 0; rank < p; rank++ {
				if math.Abs(float64(results[rank][i])-want) > 1e-2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
