// Package training implements Deep500 Level 2 (paper §IV-E): dataset
// samplers, the UpdateRule and ThreeStep optimizer abstractions, a zoo of
// reference optimizers (SGD, Momentum, Nesterov, AdaGrad, RMSProp, Adam,
// AcceleGrad), learning-rate schedules, and the training/testing loop
// runner with metric and event integration.
package training

import (
	"fmt"

	"deep500/internal/tensor"
)

// Dataset is random access to labeled samples. Implementations live in
// internal/datasets; small in-memory datasets can use InMemoryDataset.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// SampleShape returns the shape of one sample (no batch dimension).
	SampleShape() []int
	// Read copies sample i into dst (length = volume of SampleShape) and
	// returns its label.
	Read(i int, dst []float32) int
}

// Batch is one minibatch: X has shape [B, sample...], Labels has shape [B].
type Batch struct {
	X      *tensor.Tensor
	Labels *tensor.Tensor
}

// Feeds returns the executor feed map for the conventional input names.
func (b *Batch) Feeds() map[string]*tensor.Tensor {
	return map[string]*tensor.Tensor{"x": b.X, "labels": b.Labels}
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return b.Labels.Size() }

// Sampler produces minibatches from a dataset — the DatasetSampler
// interface of the paper. Next returns nil at the end of an epoch; Reset
// starts the next epoch.
type Sampler interface {
	Next() *Batch
	Reset()
	BatchSize() int
}

// InMemoryDataset is a flat in-memory implementation of Dataset.
type InMemoryDataset struct {
	shape  []int
	stride int
	data   []float32
	labels []int
}

// NewInMemoryDataset wraps sample data (n × volume(shape)) and labels.
func NewInMemoryDataset(data []float32, labels []int, shape []int) *InMemoryDataset {
	stride := tensor.Volume(shape)
	if len(data) != stride*len(labels) {
		panic(fmt.Sprintf("training: data length %d != %d samples × %d", len(data), len(labels), stride))
	}
	return &InMemoryDataset{shape: append([]int(nil), shape...), stride: stride, data: data, labels: labels}
}

// Len returns the sample count.
func (d *InMemoryDataset) Len() int { return len(d.labels) }

// SampleShape returns the per-sample shape.
func (d *InMemoryDataset) SampleShape() []int { return d.shape }

// Read copies sample i into dst and returns its label.
func (d *InMemoryDataset) Read(i int, dst []float32) int {
	copy(dst, d.data[i*d.stride:(i+1)*d.stride])
	return d.labels[i]
}

// IndexSampler is the one concrete Sampler. Each epoch it fixes an index
// order and assembles consecutive batches of it. A sequential sampler's
// order is the dataset's and keeps the last, partial batch. A shuffling
// sampler draws a seeded permutation of the dataset every epoch (uniform
// sampling without replacement — minibatch SGD's standard scheme,
// Algorithm 1); worker w of world takes every world-th index of it from w
// on, truncated to Len/world, and drops trailing partial batches. Workers
// passing the same seed therefore hold disjoint shards and take the same
// number of equally sized steps without communicating — the paper's
// distributed sampling — and world 1 is plain shuffling.
type IndexSampler struct {
	ds            Dataset
	batch         int
	worker, world int
	rng           *tensor.RNG // nil for a sequential sampler
	order         []int
	pos           int
}

// NewSequentialSampler returns an in-order sampler.
func NewSequentialSampler(ds Dataset, batch int) *IndexSampler {
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	return &IndexSampler{ds: ds, batch: batch, world: 1, order: order}
}

// NewShuffleSampler returns a shuffling sampler seeded deterministically.
func NewShuffleSampler(ds Dataset, batch int, seed uint64) *IndexSampler {
	return NewShardSampler(ds, batch, 0, 1, seed)
}

// NewShardSampler returns worker `worker` of `world`'s shuffling shard
// sampler. All workers must pass the same seed for the shards to partition
// each epoch's permutation.
func NewShardSampler(ds Dataset, batch, worker, world int, seed uint64) *IndexSampler {
	if world < 1 {
		world = 1
	}
	if worker < 0 || worker >= world {
		worker = 0
	}
	s := &IndexSampler{ds: ds, batch: batch, worker: worker, world: world, rng: tensor.NewRNG(seed)}
	s.Reset()
	return s
}

// BatchSize returns the (per-worker) minibatch size.
func (s *IndexSampler) BatchSize() int { return s.batch }

// Reset starts the next epoch: a sequential sampler rewinds, a shuffling
// one draws the next permutation (the same on every worker) and keeps its
// shard of it. Every shard has the same length, floor(Len/world), so every
// worker takes the same number of steps; a rank with a longer shard would
// block forever in a collective its peers already left.
func (s *IndexSampler) Reset() {
	s.pos = 0
	if s.rng == nil {
		return
	}
	perm := s.rng.Perm(s.ds.Len())
	per := len(perm) / s.world
	for i := 0; i < per; i++ {
		perm[i] = perm[s.worker+i*s.world]
	}
	s.order = perm[:per]
}

// Next returns the next batch, or nil at the end of the epoch.
func (s *IndexSampler) Next() *Batch {
	n := min(s.batch, len(s.order)-s.pos)
	if n <= 0 || (s.rng != nil && n < s.batch) {
		return nil
	}
	shape := append([]int{n}, s.ds.SampleShape()...)
	stride := tensor.Volume(shape[1:])
	x := make([]float32, n*stride)
	labels := make([]float32, n)
	for j, idx := range s.order[s.pos : s.pos+n] {
		labels[j] = float32(s.ds.Read(idx, x[j*stride:(j+1)*stride]))
	}
	s.pos += n
	return &Batch{X: tensor.From(x, shape...), Labels: tensor.From(labels, n)}
}

// CaptureState snapshots the epoch cursor and, for a shuffling sampler,
// the shuffle RNG.
func (s *IndexSampler) CaptureState() SamplerState {
	st := SamplerState{Order: append([]int(nil), s.order...), Pos: s.pos}
	if s.rng != nil {
		rng := s.rng.CaptureState()
		st.RNG = &rng
	}
	return st
}

// RestoreState rewinds the epoch cursor and the shuffle RNG, so every
// future epoch reshuffles exactly as the uninterrupted run would have and a
// restarted worker's permutation stays aligned with its peers'.
func (s *IndexSampler) RestoreState(st SamplerState) error {
	for _, idx := range st.Order {
		if idx < 0 || idx >= s.ds.Len() {
			return fmt.Errorf("training: checkpoint sampler order index %d out of range for dataset of %d samples (resumed with a different dataset?)", idx, s.ds.Len())
		}
	}
	if st.Pos < 0 || st.Pos > len(st.Order) {
		return fmt.Errorf("training: checkpoint sampler position %d outside its order of %d", st.Pos, len(st.Order))
	}
	if s.rng != nil {
		if st.RNG == nil {
			return fmt.Errorf("training: checkpoint has no RNG state for a shuffling sampler")
		}
		s.rng.RestoreState(*st.RNG)
	}
	s.order = append([]int(nil), st.Order...)
	s.pos = st.Pos
	return nil
}
