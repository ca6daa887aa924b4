package graph_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// FuzzDecodeD5NX feeds arbitrary bytes to Decode and DecodeCheckpoint. No
// input may panic or allocate ahead of its own bytes, and every accepted
// input must re-encode to a stream that decodes to an equal model: the
// encoding is deterministic, so equal models re-encode to equal bytes. An
// accepted checkpoint must also resume without panicking: restored into a
// shuffle sampler, it either errors or yields its next batch.
// Seeds are encoded zoo models, two version-2 checkpoints and the 18-byte
// stream whose rank-2^62 input once panicked the decoder.
func FuzzDecodeD5NX(f *testing.F) {
	cfg := models.Config{Classes: 3, Channels: 1, Height: 4, Width: 4, Seed: 1, WidthScale: 0.25}
	for _, m := range []*graph.Model{models.MLP(cfg, 4), models.LeNet(cfg), models.ResNet(8, cfg)} {
		var buf bytes.Buffer
		if err := graph.Encode(m, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Sampler position -3 is written as a uvarint ≥ 2^63, which the decoder
	// once wrapped into a cursor that panicked the resumed sampler.
	for _, pos := range []int{1, -3} {
		var ckpt bytes.Buffer
		if err := graph.EncodeCheckpoint(&graph.Checkpoint{Model: models.MLP(cfg, 2), Train: &graph.TrainState{
			Step: 7, EpochsDone: 1, MidEpoch: true,
			OptInts:       map[string]int64{"t": 7},
			OptFloats:     map[string]float64{"lr": 0.5},
			OptTensors:    map[string]*tensor.Tensor{"m/w": tensor.From([]float32{1, -2}, 2)},
			SamplerOrder:  []int{2, 0, 1},
			SamplerPos:    pos,
			HasSamplerRNG: true,
			SamplerRNG:    tensor.RNGState{State: 9, HasSpare: true, Spare: 0.25},
		}}, &ckpt); err != nil {
			f.Fatal(err)
		}
		f.Add(ckpt.Bytes())
	}
	f.Add(binary.AppendUvarint([]byte("D5NX\x01\x00\x00\x01\x00"), 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := graph.Decode(bytes.NewReader(data)); err == nil {
			once := reencode(t, m, nil)
			m2, err := graph.Decode(bytes.NewReader(once))
			if err != nil {
				t.Fatalf("re-encoded model does not decode: %v", err)
			}
			if twice := reencode(t, m2, nil); !bytes.Equal(once, twice) {
				t.Fatal("decode → encode → decode changed the model")
			}
		}
		c, err := graph.DecodeCheckpoint(bytes.NewReader(data))
		if err != nil || c.Train == nil {
			return
		}
		once := reencode(t, c.Model, c.Train)
		c2, err := graph.DecodeCheckpoint(bytes.NewReader(once))
		if err != nil || c2.Train == nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if twice := reencode(t, c2.Model, c2.Train); !bytes.Equal(once, twice) {
			t.Fatal("decode → encode → decode changed the checkpoint")
		}
		ds := training.NewInMemoryDataset(make([]float32, 4), []int{0, 1, 0, 1}, []int{1})
		s := training.NewShuffleSampler(ds, 2, 1)
		if training.RestoreTrainState(c.Train, nil, s) == nil {
			s.Next()
		}
	})
}

// reencode writes m as a plain model, or as a checkpoint when ts is set.
func reencode(t *testing.T, m *graph.Model, ts *graph.TrainState) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if ts == nil {
		err = graph.Encode(m, &buf)
	} else {
		err = graph.EncodeCheckpoint(&graph.Checkpoint{Model: m, Train: ts}, &buf)
	}
	if err != nil {
		t.Fatalf("re-encoding an accepted stream: %v", err)
	}
	return buf.Bytes()
}

// FuzzBuildAndRun: a model the decoder and executor.New accept runs. Each
// accepted input gets feeds of its declared shapes at batch 2 (a fixed
// pattern of values, zeros for rank-1 feeds, which may be class labels),
// one inference pass and then three training passes (loss = the first output)
// with a second inference between the second and the third. Any pass may
// return an error but not panic. When the first training pass succeeds,
// the third, the first to run out of the training plan, must return
// outputs and gradients bitwise equal to the first's, which an activation
// the plan placed over a live one would break. Models whose inferred
// activations exceed a million floats are skipped, to keep the fuzzer's
// memory small. Seeds are encoded zoo models and the MLP whose first Gemm
// reads a rank-0 weight, which executor.New once accepted and whose first
// pass panicked.
//
//	go test ./internal/graph -run '^$' -fuzz FuzzBuildAndRun -fuzztime 60s
func FuzzBuildAndRun(f *testing.F) {
	cfg := models.Config{Classes: 3, Channels: 1, Height: 8, Width: 8, Seed: 1, WidthScale: 0.25, WithHead: true}
	rankZero := models.MLP(cfg, 4)
	rankZero.AddInitializer("scalar_w", tensor.Scalar(1))
	for _, n := range rankZero.Nodes {
		if n.OpType == "Gemm" {
			n.Inputs[1] = "scalar_w"
			break
		}
	}
	for _, m := range []*graph.Model{models.MLP(cfg, 4), models.LeNet(cfg), models.ResNet(8, cfg), rankZero} {
		var buf bytes.Buffer
		if err := graph.Encode(m, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const batch, budget = 2, 1 << 20
		m, err := graph.Decode(bytes.NewReader(data))
		if err != nil || len(m.Outputs) == 0 {
			return
		}
		e, err := executor.New(m)
		if err != nil {
			return
		}
		shapes, err := m.InferShapes(batch)
		if err != nil {
			return // New checked batch 1; a fixed Reshape may not take 2
		}
		total := 0
		for _, s := range shapes {
			n := 1
			for _, d := range s {
				n *= max(d, 1)
				if n > budget {
					return
				}
			}
			if total += n; total > budget {
				return
			}
		}
		feeds := map[string]*tensor.Tensor{}
		for _, in := range m.Inputs {
			s := shapes[in.Name]
			if slices.ContainsFunc(s, func(d int) bool { return d < 0 }) {
				return // a declared dimension no feed can have
			}
			t := tensor.New(s...)
			if len(s) > 1 { // rank-1 feeds (class labels) stay zero: a valid class
				for i := range t.Data() {
					t.Data()[i] = float32(i%13)/8 - 0.75
				}
			}
			feeds[in.Name] = t
		}
		ctx := context.Background()
		e.Inference(ctx, feeds)
		first, err := e.InferenceAndBackprop(ctx, feeds, m.Outputs[0])
		if err != nil {
			return
		}
		grads := map[string]*tensor.Tensor{}
		for _, pg := range e.Network().Gradients() {
			grads[pg.Name] = pg.Grad.Clone() // the executor reuses its gradient buffers
		}
		e.InferenceAndBackprop(ctx, feeds, m.Outputs[0])
		e.Inference(ctx, feeds)
		third, err := e.InferenceAndBackprop(ctx, feeds, m.Outputs[0])
		if err != nil {
			t.Fatalf("the third training pass failed where the first did not: %v", err)
		}
		for name, want := range first {
			if !sameBits(want, third[name]) {
				t.Fatalf("output %q of the third training pass differs from the first's", name)
			}
		}
		got := e.Network().Gradients()
		if len(got) != len(grads) {
			t.Fatalf("%d gradients on the third training pass, %d on the first", len(got), len(grads))
		}
		for _, pg := range got {
			if !sameBits(grads[pg.Name], pg.Grad) {
				t.Fatalf("gradient %q of the third training pass differs from the first's", pg.Name)
			}
		}
	})
}

// sameBits reports whether a and b have the same shape and bit-identical
// elements.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}
