package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"deep500/internal/tensor"
)

// Checkpoint support: D5NX version 2 is the version-1 model body followed by
// a training-state section, so one file captures everything an exact resume
// needs — trained parameters, optimizer slots, and the data-order cursor.
//
// Training-state layout (appended after the model body):
//
//	step | epochsDone | midEpoch
//	| nOptInts    { name, varint }
//	| nOptFloats  { name, f64 }
//	| nOptTensors { name, tensor }
//	| nOrder { varint } | samplerPos
//	| hasSamplerRNG | rngState | rngHasSpare | rngSpare
//
// Maps are written in sorted key order so the same checkpoint always
// serializes to the same bytes (determinism, paper pillar 5).

// TrainState is the serializable mid-training state of a run: the runner
// cursor, flattened optimizer state, and the sampler/RNG cursor. It is plain
// data — internal/training converts its own types to and from it — so graph
// stays dependency-free.
type TrainState struct {
	// Step is the number of optimizer steps completed; EpochsDone the
	// number of full epochs completed. MidEpoch reports whether the
	// checkpoint was taken inside an epoch (the sampler cursor then points
	// at the next undelivered batch).
	Step       int
	EpochsDone int
	MidEpoch   bool

	// Flattened optimizer state (see training.OptimizerState).
	OptInts    map[string]int64
	OptFloats  map[string]float64
	OptTensors map[string]*tensor.Tensor

	// Training-sampler cursor: the epoch's sample order and the position
	// of the next batch within it.
	SamplerOrder []int
	SamplerPos   int

	// Shuffle RNG state, present only for stochastic samplers.
	HasSamplerRNG bool
	SamplerRNG    tensor.RNGState
}

// Checkpoint pairs a model snapshot with the training state taken at the
// same instant.
type Checkpoint struct {
	Model *Model
	Train *TrainState
}

// EncodeCheckpoint writes a version-2 D5NX stream: model body plus training
// state.
func EncodeCheckpoint(c *Checkpoint, out io.Writer) error {
	if c.Train == nil {
		return fmt.Errorf("graph: checkpoint has no training state")
	}
	w := &writer{w: bufio.NewWriter(out)}
	if err := w.header(d5nxVersionCkpt); err != nil {
		return err
	}
	w.model(c.Model)
	w.trainState(c.Train)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *writer) trainState(s *TrainState) {
	w.uvarint(uint64(s.Step))
	w.uvarint(uint64(s.EpochsDone))
	w.bool(s.MidEpoch)

	intKeys := sortedKeys(s.OptInts)
	w.uvarint(uint64(len(intKeys)))
	for _, k := range intKeys {
		w.str(k)
		w.varint(s.OptInts[k])
	}
	floatKeys := sortedKeys(s.OptFloats)
	w.uvarint(uint64(len(floatKeys)))
	for _, k := range floatKeys {
		w.str(k)
		w.f64(s.OptFloats[k])
	}
	tensorKeys := sortedKeys(s.OptTensors)
	w.uvarint(uint64(len(tensorKeys)))
	for _, k := range tensorKeys {
		w.str(k)
		w.tensor(s.OptTensors[k])
	}

	w.uvarint(uint64(len(s.SamplerOrder)))
	for _, v := range s.SamplerOrder {
		w.varint(int64(v))
	}
	w.uvarint(uint64(s.SamplerPos))

	w.bool(s.HasSamplerRNG)
	w.uvarint(s.SamplerRNG.State)
	w.bool(s.SamplerRNG.HasSpare)
	w.f64(s.SamplerRNG.Spare)
}

func (w *writer) bool(v bool) {
	if v {
		w.uvarint(1)
	} else {
		w.uvarint(0)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DecodeCheckpoint reads a version-2 D5NX stream. Version-1 streams decode
// with a nil Train field, so callers can distinguish a plain model from a
// resumable checkpoint.
func DecodeCheckpoint(in io.Reader) (*Checkpoint, error) {
	r := &reader{r: bufio.NewReader(in)}
	v, err := r.header()
	if err != nil {
		return nil, err
	}
	m, err := r.model()
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{Model: m}
	if v == d5nxVersionCkpt {
		c.Train = r.trainState()
		if r.err != nil {
			return nil, r.err
		}
	}
	return c, nil
}

func (r *reader) trainState() *TrainState {
	s := &TrainState{
		Step:       r.count("step count", math.MaxInt),
		EpochsDone: r.count("epoch count", math.MaxInt),
		MidEpoch:   r.bool(),
		OptInts:    make(map[string]int64),
		OptFloats:  make(map[string]float64),
		OptTensors: make(map[string]*tensor.Tensor),
	}
	nInts := r.count("optimizer int count", maxCount)
	for i := 0; i < nInts && r.err == nil; i++ {
		k := r.str()
		s.OptInts[k] = r.varint()
	}
	nFloats := r.count("optimizer float count", maxCount)
	for i := 0; i < nFloats && r.err == nil; i++ {
		k := r.str()
		s.OptFloats[k] = r.f64()
	}
	nTensors := r.count("optimizer tensor count", maxCount)
	for i := 0; i < nTensors && r.err == nil; i++ {
		k := r.str()
		if t := r.tensor(); r.err == nil {
			s.OptTensors[k] = t
		}
	}
	s.SamplerOrder = list(r, "sampler order length", func() int { return int(r.varint()) })
	s.SamplerPos = r.count("sampler position", math.MaxInt)
	if r.err == nil && s.SamplerPos > len(s.SamplerOrder) {
		r.err = fmt.Errorf("graph: sampler position %d past the end of its %d-sample order", s.SamplerPos, len(s.SamplerOrder))
	}
	s.HasSamplerRNG = r.bool()
	s.SamplerRNG.State = r.uvarint()
	s.SamplerRNG.HasSpare = r.bool()
	s.SamplerRNG.Spare = r.f64()
	return s
}

func (r *reader) bool() bool { return r.uvarint() != 0 }

// SaveCheckpoint atomically writes a version-2 checkpoint file.
func SaveCheckpoint(c *Checkpoint, path string) error {
	return WriteFileAtomic(path, func(out io.Writer) error {
		return EncodeCheckpoint(c, out)
	})
}

// LoadCheckpoint reads a checkpoint file. Plain version-1 model files load
// with Train == nil.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
