package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"deep500/internal/tensor"
)

func sampleTrainState() *TrainState {
	return &TrainState{
		Step:       1234,
		EpochsDone: 3,
		MidEpoch:   true,
		OptInts:    map[string]int64{"t": 1234, "init": 1},
		OptFloats:  map[string]float64{"alphaT": 0.125, "tauT": -3.5},
		OptTensors: map[string]*tensor.Tensor{
			"m/w1": tensor.From([]float32{1, 2, 3, 4}, 2, 2),
			"v/w1": tensor.From([]float32{-1, 0.5, 0, 8}, 2, 2),
		},
		SamplerOrder:  []int{3, 0, 2, 1, 4},
		SamplerPos:    2,
		HasSamplerRNG: true,
		SamplerRNG:    tensor.RNGState{State: 0xdeadbeef, HasSpare: true, Spare: 0.75},
	}
}

// TestCheckpointRoundTrip encodes a v2 checkpoint and requires every field
// to survive bit-exactly — the invariant exact resume stands on.
func TestCheckpointRoundTrip(t *testing.T) {
	c := &Checkpoint{Model: smallMLP(), Train: sampleTrainState()}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(c, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Train == nil {
		t.Fatal("decoded checkpoint lost its training state")
	}
	ts, want := got.Train, c.Train
	if ts.Step != want.Step || ts.EpochsDone != want.EpochsDone || ts.MidEpoch != want.MidEpoch {
		t.Fatalf("counters: got %d/%d/%v want %d/%d/%v",
			ts.Step, ts.EpochsDone, ts.MidEpoch, want.Step, want.EpochsDone, want.MidEpoch)
	}
	if !reflect.DeepEqual(ts.OptInts, want.OptInts) {
		t.Fatalf("OptInts: got %v want %v", ts.OptInts, want.OptInts)
	}
	for k, v := range want.OptFloats {
		if math.Float64bits(ts.OptFloats[k]) != math.Float64bits(v) {
			t.Fatalf("OptFloats[%s]: got %v want %v", k, ts.OptFloats[k], v)
		}
	}
	for k, v := range want.OptTensors {
		g, ok := ts.OptTensors[k]
		if !ok || !tensor.SameShape(g, v) || !reflect.DeepEqual(g.Data(), v.Data()) {
			t.Fatalf("OptTensors[%s] did not round-trip", k)
		}
	}
	if !reflect.DeepEqual(ts.SamplerOrder, want.SamplerOrder) || ts.SamplerPos != want.SamplerPos {
		t.Fatalf("sampler cursor: got %v@%d want %v@%d",
			ts.SamplerOrder, ts.SamplerPos, want.SamplerOrder, want.SamplerPos)
	}
	if ts.SamplerRNG != want.SamplerRNG || !ts.HasSamplerRNG {
		t.Fatalf("sampler RNG: got %+v want %+v", ts.SamplerRNG, want.SamplerRNG)
	}
	// The model body must round-trip through the same stream too.
	if got.Model.Name != c.Model.Name || len(got.Model.Nodes) != len(c.Model.Nodes) {
		t.Fatalf("model body mangled: %q/%d nodes", got.Model.Name, len(got.Model.Nodes))
	}
}

// TestCheckpointRejectsBadCursor: a counter that does not fit an int (a
// uvarint ≥ 2^63, which int() would wrap negative) and a sampler position
// past the end of its order are decode errors, not states that panic a
// resumed sampler later.
func TestCheckpointRejectsBadCursor(t *testing.T) {
	for name, corrupt := range map[string]func(*TrainState){
		"step ≥ 2^63":          func(s *TrainState) { s.Step = -1 },
		"epochs ≥ 2^63":        func(s *TrainState) { s.EpochsDone = math.MinInt },
		"sampler pos ≥ 2^63":   func(s *TrainState) { s.SamplerPos = -3 },
		"sampler pos past end": func(s *TrainState) { s.SamplerPos = len(s.SamplerOrder) + 1 },
	} {
		ts := sampleTrainState()
		corrupt(ts)
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&Checkpoint{Model: smallMLP(), Train: ts}, &buf); err != nil {
			t.Fatal(err)
		}
		if c, err := DecodeCheckpoint(&buf); err == nil {
			t.Errorf("%s: decoded with step %d, epochs %d, sampler pos %d of %d",
				name, c.Train.Step, c.Train.EpochsDone, c.Train.SamplerPos, len(c.Train.SamplerOrder))
		}
	}
	// The end of the order itself is a valid cursor: an epoch just finished.
	ts := sampleTrainState()
	ts.SamplerPos = len(ts.SamplerOrder)
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&Checkpoint{Model: smallMLP(), Train: ts}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); err != nil {
		t.Fatalf("cursor at the end of the order rejected: %v", err)
	}
}

// TestCheckpointDeterministicBytes: the same checkpoint always serializes
// to the same bytes (maps are written in sorted key order).
func TestCheckpointDeterministicBytes(t *testing.T) {
	c := &Checkpoint{Model: smallMLP(), Train: sampleTrainState()}
	var a, b bytes.Buffer
	if err := EncodeCheckpoint(c, &a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCheckpoint(c, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("checkpoint encoding is not deterministic")
	}
}

// TestCheckpointVersionCompat: plain Decode accepts a v2 stream (dropping
// the state), and DecodeCheckpoint reports a v1 stream with Train == nil.
func TestCheckpointVersionCompat(t *testing.T) {
	c := &Checkpoint{Model: smallMLP(), Train: sampleTrainState()}
	var v2 bytes.Buffer
	if err := EncodeCheckpoint(c, &v2); err != nil {
		t.Fatal(err)
	}
	m, err := Decode(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("Decode must accept v2 streams: %v", err)
	}
	if m.Name != c.Model.Name {
		t.Fatalf("v2 model decode: got %q", m.Name)
	}

	var v1 bytes.Buffer
	if err := Encode(c.Model, &v1); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("DecodeCheckpoint must accept v1 streams: %v", err)
	}
	if got.Train != nil {
		t.Fatal("v1 stream decoded with phantom training state")
	}

	if err := EncodeCheckpoint(&Checkpoint{Model: c.Model}, io.Discard); err == nil {
		t.Fatal("EncodeCheckpoint without training state must fail")
	}
}

// TestSaveAtomic is the satellite-f regression test: Save and
// SaveCheckpoint must go through the temp-file + rename path, leaving no
// partial files next to the destination, and a failed write must leave a
// pre-existing destination untouched.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.d5nx")
	m := smallMLP()
	if err := Save(m, path); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&Checkpoint{Model: m, Train: sampleTrainState()}, path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.d5nx" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after atomic saves: %v", names)
	}

	// A failing writer must not clobber the existing file...
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic swallowed the write error: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write clobbered the existing file")
	}
	// ...and must not leave temp files behind.
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp file leaked after failed write: %d entries", len(entries))
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Train == nil || ck.Train.Step != 1234 {
		t.Fatal("saved checkpoint did not survive the failed-overwrite attempt")
	}
}

// TestEncodeCheckpointCopiesNoTensor: encoding a checkpoint allocates the
// same whatever the tensors in it (each tensor's floats go to the buffered
// writer as they are stored, not through a copy), and the portable
// conversion path writes the same bytes as the little-endian one.
func TestEncodeCheckpointCopiesNoTensor(t *testing.T) {
	small := &Checkpoint{Model: smallMLP(), Train: sampleTrainState()}
	big := &Checkpoint{Model: smallMLP(), Train: sampleTrainState()}
	for i := 0; i < 16; i++ {
		big.Train.OptTensors[fmt.Sprintf("m/extra%02d", i)] = tensor.New(64, 300)
	}
	allocs := func(c *Checkpoint) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := EncodeCheckpoint(c, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(big); b != a {
		t.Errorf("%v allocations with 16 more 64×300 tensors, %v without: want the same", b, a)
	}

	d := big.Train.OptTensors["m/extra03"].Data()
	for i := range d {
		d[i] = float32(i) * -0.37
	}
	var native, portable bytes.Buffer
	if err := EncodeCheckpoint(big, &native); err != nil {
		t.Fatal(err)
	}
	defer func(v bool) { hostLittleEndian = v }(hostLittleEndian)
	hostLittleEndian = false
	if err := EncodeCheckpoint(big, &portable); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(native.Bytes(), portable.Bytes()) {
		t.Fatal("the portable float encoding differs from the little-endian one")
	}
}
