// Package training implements Deep500 Level 2 (paper §IV-E): dataset
// samplers, the UpdateRule and ThreeStep optimizer abstractions, a zoo of
// reference optimizers (SGD, Momentum, Nesterov, AdaGrad, RMSProp, Adam,
// AcceleGrad), learning-rate schedules, and the training/testing loop
// runner with metric and event integration.
package training

import (
	"fmt"

	"deep500/internal/metrics"
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

// baseSampler assembles batches given an index order.
type baseSampler struct {
	ds       Dataset
	batch    int
	pos      int
	order    []int
	dropLast bool
	bias     *metrics.DatasetBias
}

func (s *baseSampler) BatchSize() int { return s.batch }

// AttachBias wires a DatasetBias metric that observes every sampled label.
func (s *baseSampler) AttachBias(b *metrics.DatasetBias) { s.bias = b }

func (s *baseSampler) next() *Batch {
	remaining := len(s.order) - s.pos
	if remaining <= 0 || (s.dropLast && remaining < s.batch) {
		return nil
	}
	n := s.batch
	if n > remaining {
		n = remaining
	}
	stride := tensor.Volume(s.ds.SampleShape())
	xData := make([]float32, n*stride)
	labels := make([]float32, n)
	for j := 0; j < n; j++ {
		idx := s.order[s.pos+j]
		label := s.ds.Read(idx, xData[j*stride:(j+1)*stride])
		labels[j] = float32(label)
		if s.bias != nil {
			s.bias.ObserveLabel(label)
		}
	}
	s.pos += n
	shape := append([]int{n}, s.ds.SampleShape()...)
	return &Batch{X: tensor.From(xData, shape...), Labels: tensor.From(labels, n)}
}

// SequentialSampler iterates the dataset in order.
type SequentialSampler struct{ baseSampler }

// NewSequentialSampler returns an in-order sampler.
func NewSequentialSampler(ds Dataset, batch int) *SequentialSampler {
	s := &SequentialSampler{baseSampler{ds: ds, batch: batch}}
	s.Reset()
	return s
}

// Next returns the next batch or nil at epoch end.
func (s *SequentialSampler) Next() *Batch { return s.next() }

// Reset rewinds to the dataset start.
func (s *SequentialSampler) Reset() {
	if s.order == nil {
		s.order = make([]int, s.ds.Len())
		for i := range s.order {
			s.order[i] = i
		}
	}
	s.pos = 0
}

// ShuffleSampler reshuffles the index order each epoch (uniform sampling
// without replacement — minibatch SGD's standard scheme, Algorithm 1).
type ShuffleSampler struct {
	baseSampler
	rng *tensor.RNG
}

// NewShuffleSampler returns a shuffling sampler seeded deterministically.
func NewShuffleSampler(ds Dataset, batch int, seed uint64) *ShuffleSampler {
	s := &ShuffleSampler{baseSampler: baseSampler{ds: ds, batch: batch, dropLast: true}, rng: tensor.NewRNG(seed)}
	s.Reset()
	return s
}

// Next returns the next batch or nil at epoch end.
func (s *ShuffleSampler) Next() *Batch { return s.next() }

// Reset reshuffles for a new epoch.
func (s *ShuffleSampler) Reset() {
	s.order = s.rng.Perm(s.ds.Len())
	s.pos = 0
}
