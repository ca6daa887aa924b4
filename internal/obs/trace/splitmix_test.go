package trace

import (
	"testing"

	"deep500/internal/tensor"
)

// TestSplitMix64Pinned pins both users of the one SplitMix64 mixer to the
// same fixed sequence: the first eight draws of tensor.NewRNG(1) and the
// first eight span IDs of a tracer seeded with 1. Any change to the step or
// the mixer moves every seeded experiment and every trace ID, so it must
// show up here first.
func TestSplitMix64Pinned(t *testing.T) {
	want := []uint64{
		0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b,
		0x71bb54d8d101b5b9, 0xc34d0bff90150280, 0xe099ec6cd7363ca5, 0x85e7bb0f12278575,
	}
	rng := tensor.NewRNG(1)
	tr := New(Options{Seed: 1})
	for i, w := range want {
		if got := rng.Uint64(); got != w {
			t.Errorf("NewRNG(1) draw %d = %#x, want %#x", i, got, w)
		}
		if got := tr.StartRoot("s").SpanID(); got != w {
			t.Errorf("tracer span ID %d = %#x, want %#x", i, got, w)
		}
	}
}
