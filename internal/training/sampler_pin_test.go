package training_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deep500/internal/training"
)

// pinCase is one sampler configuration of TestSamplerOrdersPinned: world 0
// is the sequential sampler, world 1 the shuffling one, and larger worlds
// the worker's shard of each epoch's permutation.
type pinCase struct {
	world, worker, batch int
	batches              int    // over the three epochs
	hash                 uint64 // FNV-1a over every batch's X bits and labels
	state                uint64 // FNV-1a over the state captured mid-run
}

func (c pinCase) String() string {
	switch c.world {
	case 0:
		return fmt.Sprintf("seq/b%d", c.batch)
	case 1:
		return fmt.Sprintf("shuffle/b%d", c.batch)
	}
	return fmt.Sprintf("w%d.%d/b%d", c.world, c.worker, c.batch)
}

func (c pinCase) sampler(ds training.Dataset, seed uint64) training.CheckpointableSampler {
	switch c.world {
	case 0:
		return training.NewSequentialSampler(ds, c.batch)
	case 1:
		return training.NewShuffleSampler(ds, c.batch, seed)
	}
	return training.NewShardSampler(ds, c.batch, c.worker, c.world, seed)
}

func batchHash(b *training.Batch) uint64 {
	h := fnv.New64a()
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(b.Size()))
	h.Write(w[:])
	for _, v := range b.X.Data() {
		binary.LittleEndian.PutUint32(w[:4], math.Float32bits(v))
		h.Write(w[:4])
	}
	for _, v := range b.Labels.Data() {
		binary.LittleEndian.PutUint32(w[:4], math.Float32bits(v))
		h.Write(w[:4])
	}
	return h.Sum64()
}

func stateHash(st training.SamplerState) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(len(st.Order)))
	for _, i := range st.Order {
		put(uint64(i))
	}
	put(uint64(st.Pos))
	if st.RNG != nil {
		put(st.RNG.State)
		put(math.Float64bits(st.RNG.Spare))
		if st.RNG.HasSpare {
			put(1)
		}
	}
	return h.Sum64()
}

// TestSamplerOrdersPinned pins the batches every sampler configuration
// draws over three epochs, and the state it checkpoints, to constants: a
// change to how samplers are built must not move a batch or a checkpoint
// byte. It also restores the state captured mid-epoch into a freshly built
// sampler and requires the rest of the run to match the uninterrupted one.
func TestSamplerOrdersPinned(t *testing.T) {
	const (
		epochs  = 3
		seed    = 21
		capEp   = 1 // capture in the second epoch,
		capNext = 3 // after its third batch
	)
	ds := training.SyntheticClassification(103, 5, []int{3}, 0.5, 9)
	cases := []pinCase{
		{world: 0, batch: 4, batches: 78, hash: 0xcd28b1a5d147ef6d, state: 0xc0bdd0ff0788dec9},
		{world: 0, batch: 7, batches: 45, hash: 0x85c8ae665420cd71, state: 0x9999423e5413e5b0},
		{world: 1, batch: 4, batches: 75, hash: 0x347eb0ba72f5ffd1, state: 0x9c6bf16c8367193},
		{world: 1, batch: 7, batches: 42, hash: 0xd2caa33e9a6992eb, state: 0x9e72074799ceefb2},
		{world: 2, worker: 0, batch: 4, batches: 36, hash: 0x8ad6c03fbec4a850, state: 0x35311544cdfb11ed},
		{world: 2, worker: 1, batch: 4, batches: 36, hash: 0xd4a0dbc1a57a14ee, state: 0xac9bbfb367338178},
		{world: 2, worker: 0, batch: 7, batches: 21, hash: 0x4601072cfed866d2, state: 0x3670e008b258ad84},
		{world: 2, worker: 1, batch: 7, batches: 21, hash: 0xa9f957a1d7090164, state: 0x9877011e6ed426b1},
		{world: 3, worker: 0, batch: 4, batches: 24, hash: 0xd4788595068c63e0, state: 0xcc3296968903a65f},
		{world: 3, worker: 1, batch: 4, batches: 24, hash: 0x8d7d9d98fd294562, state: 0x5309be393e76614f},
		{world: 3, worker: 2, batch: 4, batches: 24, hash: 0x16e755509f6283fb, state: 0xbb6f29e1bc91b054},
		{world: 3, worker: 0, batch: 7, batches: 12, hash: 0x637e9c71502dbd52, state: 0x8ebe06abdecac8be},
		{world: 3, worker: 1, batch: 7, batches: 12, hash: 0xb47bceead4e7a731, state: 0x4ed5fb2e708c3a4e},
		{world: 3, worker: 2, batch: 7, batches: 12, hash: 0xdded9b5fe6f4013b, state: 0x3ba1ab237f285a1d},
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			// The uninterrupted run, one hash per batch.
			var want []uint64
			var at int // index in want of the first batch after the capture
			var st training.SamplerState
			s := c.sampler(ds, seed)
			for e := 0; e < epochs; e++ {
				if e > 0 {
					s.Reset()
				}
				for i := 0; ; i++ {
					if e == capEp && i == capNext {
						st, at = s.CaptureState(), len(want)
					}
					b := s.Next()
					if b == nil {
						break
					}
					want = append(want, batchHash(b))
				}
			}
			h := fnv.New64a()
			var w [8]byte
			for _, v := range want {
				binary.LittleEndian.PutUint64(w[:], v)
				h.Write(w[:])
			}
			if len(want) != c.batches || h.Sum64() != c.hash || stateHash(st) != c.state {
				t.Errorf("batches %d hash %#x state %#x, pinned %d %#x %#x",
					len(want), h.Sum64(), stateHash(st), c.batches, c.hash, c.state)
			}

			// A fresh sampler under another seed, restored from the capture,
			// must draw the rest of the run.
			r := c.sampler(ds, seed+1)
			if err := r.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for e := capEp; e < epochs; e++ {
				if e > capEp {
					r.Reset()
				}
				for b := r.Next(); b != nil; b = r.Next() {
					got = append(got, batchHash(b))
				}
			}
			if len(got) != len(want)-at {
				t.Fatalf("resumed run drew %d batches, uninterrupted %d", len(got), len(want)-at)
			}
			for i := range got {
				if got[i] != want[at+i] {
					t.Fatalf("resumed batch %d differs from the uninterrupted run", i)
				}
			}
		})
	}
}
