package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"deep500/internal/tensor"
)

// wantFrame is a vector frame assembled field by field and encoded through
// AppendFrame: the reference the send path's one-pass encoder,
// appendVectorFrame, must match byte for byte.
func wantFrame(src, tag int, data []float32, trace, span uint64) []byte {
	f := Frame{Type: FrameF32, Src: int32(src), Tag: int32(tag), Count: uint32(len(data)), Trace: trace, Span: span}
	for _, v := range data {
		f.Payload = binary.LittleEndian.AppendUint32(f.Payload, math.Float32bits(v))
	}
	return AppendFrame(nil, &f)
}

// readVectorFrame decodes one vector frame the way a connection reader
// does: the header, then readVector into a fresh slice.
func readVectorFrame(wire []byte) (Frame, []float32, error) {
	r := bytes.NewReader(wire)
	f, _, err := readHeader(r, make([]byte, headerLen))
	if err != nil {
		return Frame{}, nil, err
	}
	data := make([]float32, f.Count)
	if err := readVector(r, &f, data); err != nil {
		return Frame{}, nil, err
	}
	return f, data, nil
}

// TestFrameRoundTrip pins the send path's encoder (appendVectorFrame)
// against the field-by-field encoding and the stream decoders (ReadFrame,
// and readHeader plus readVector as the connection readers use them).
func TestFrameRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(41)
	for _, n := range []int{0, 1, 7, 100} {
		data := tensor.RandNormal(rng, 0, 1, n+1).Data()[:n]
		wire := appendVectorFrame(nil, 3, 2, data, 0, 0)
		if !bytes.Equal(wire, wantFrame(3, 2, data, 0, 0)) {
			t.Fatalf("n=%d: appendVectorFrame differs from the field-by-field encoding", n)
		}
		// Traced, and appended behind whatever the buffer already holds.
		kept := appendVectorFrame([]byte("kept"), 3, 2, data, 0xfeed, 0xbeef)
		if !bytes.Equal(kept, append([]byte("kept"), wantFrame(3, 2, data, 0xfeed, 0xbeef)...)) {
			t.Fatalf("n=%d: traced appendVectorFrame differs from the field-by-field encoding", n)
		}

		got, err := ReadFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if got.Src != 3 || got.Tag != 2 || got.Count != uint32(n) {
			t.Fatalf("n=%d: header %+v", n, got)
		}
		if got.Trace != 0 || got.Span != 0 {
			t.Fatalf("n=%d: untraced frame decoded trace ctx %x/%x", n, got.Trace, got.Span)
		}
		if re := AppendFrame(nil, &got); !bytes.Equal(re, wire) {
			t.Fatalf("n=%d: AppendFrame of the decoded frame differs from the sent bytes", n)
		}

		// The connection readers' path: header, then readVector straight
		// off the stream into a recycled (dirty) slab. Whole frame consumed.
		stream := bytes.NewReader(wire)
		hf, _, err := readHeader(stream, make([]byte, headerLen))
		if err != nil {
			t.Fatalf("n=%d: readHeader: %v", n, err)
		}
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(math.NaN())
		}
		if err := readVector(stream, &hf, vec); err != nil {
			t.Fatalf("n=%d: readVector: %v", n, err)
		}
		if stream.Len() != 0 {
			t.Fatalf("n=%d: readVector left %d bytes of the frame unread", n, stream.Len())
		}
		for i := range vec {
			if math.Float32bits(vec[i]) != math.Float32bits(data[i]) {
				t.Fatalf("n=%d: value %d changed: %g vs %g", n, i, vec[i], data[i])
			}
		}
	}
}

// corrupt returns a valid encoded frame with one mutation applied.
func corrupt(t *testing.T, mutate func(b []byte) []byte) []byte {
	t.Helper()
	return mutate(appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 0, 0))
}

// TestFrameDecodeRejects drives the decoder through every corruption class:
// all must return an error, none may panic or succeed.
func TestFrameDecodeRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": corrupt(t, func(b []byte) []byte { return b[:10] }),
		"bad magic":        corrupt(t, func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      corrupt(t, func(b []byte) []byte { b[4] = 9; return b }),
		"unknown type":     corrupt(t, func(b []byte) []byte { b[5] = 200; return b }),
		"retired type 1":   corrupt(t, func(b []byte) []byte { b[5] = 1; return b }),
		"reserved byte 6":  corrupt(t, func(b []byte) []byte { b[6] = 4; return b }),
		"reserved byte 7":  corrupt(t, func(b []byte) []byte { b[7] = 1; return b }),
		"truncated payload": corrupt(t, func(b []byte) []byte {
			return b[:len(b)-4]
		}),
		"oversized declared payload": corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:24], MaxPayload+1)
			return b
		}),
		"oversized count": corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], MaxPayload)
			return b
		}),
		"count/payload mismatch": corrupt(t, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 7)
			return b
		}),
		"hello with payload": func() []byte {
			f := Frame{Type: FrameHello, Src: 1, Count: 1, Payload: []byte{0, 0, 0, 0}}
			return AppendFrame(nil, &f)
		}(),
		"hello negative rank": func() []byte {
			f := Frame{Type: FrameHello, Src: -2}
			return AppendFrame(nil, &f)
		}(),
	}
	for name, wire := range cases {
		if _, err := ReadFrame(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
		if _, _, err := readVectorFrame(wire); err == nil {
			t.Errorf("%s: vector decode succeeded on corrupt input", name)
		}
	}
}

// TestDecodeVectorRejects: a hand-built frame whose payload does not match
// its fields, or that carries no vector, is an error and never a panic.
func TestDecodeVectorRejects(t *testing.T) {
	short, err := ReadFrame(bytes.NewReader(appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	short.Payload = short.Payload[:8]
	for name, f := range map[string]Frame{
		"short float payload": short,
		"hello":               {Type: FrameHello, Src: 1},
		"unknown type":        {Type: 77},
	} {
		if _, v, err := readVectorFrame(AppendFrame(nil, &f)); err == nil {
			t.Errorf("%s: decoded %v", name, v)
		}
	}
}

// FuzzDecodeFrame is the decoder's no-panic guarantee: arbitrary bytes
// either fail cleanly or decode to a frame whose re-encoding decodes
// identically. (go test runs the seed corpus; go test -fuzz explores.)
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendVectorFrame(nil, 2, 1, []float32{-1, 0.5, 3}, 0, 0))
	f.Add(appendVectorFrame(nil, 0, 0, []float32{-1, 0.5, 3, 0.25, 9}, 0, 0))
	hello := Frame{Type: FrameHello, Src: 4}
	f.Add(AppendFrame(nil, &hello))
	f.Add(appendVectorFrame(nil, 1, 3, []float32{2, 4}, 0xdeadbeefcafef00d, 0x0123456789abcdef))
	f.Add([]byte("D5TP"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, wire []byte) {
		fr, err := ReadFrame(bytes.NewReader(wire)) // must never panic
		if err != nil {
			return
		}
		if n := headerLen + len(fr.Payload); n > len(wire) {
			t.Fatalf("decoded %d bytes from %d", n, len(wire))
		}
		re := AppendFrame(nil, &fr)
		fr2, err := ReadFrame(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Src != fr.Src ||
			fr2.Tag != fr.Tag || fr2.Count != fr.Count ||
			fr2.Trace != fr.Trace || fr2.Span != fr.Span || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", fr, fr2)
		}
		if fr.Type == FrameF32 {
			if _, _, err := readVectorFrame(wire); err != nil {
				t.Fatalf("validated frame fails vector decode: %v", err)
			}
		}
	})
}

// TestFrameTraceRoundTrip pins the version-2 trace fields through both
// decode paths.
func TestFrameTraceRoundTrip(t *testing.T) {
	const traceID, spanID = 0xfeedface12345678, 0x1122334455667788
	wire := appendVectorFrame(nil, 3, 2, []float32{1, 2}, traceID, spanID)

	streamed, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Trace != traceID || streamed.Span != spanID {
		t.Fatalf("streamed trace ctx %x/%x, want %x/%x", streamed.Trace, streamed.Span, uint64(traceID), uint64(spanID))
	}
	got, _, err := readVectorFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != traceID || got.Span != spanID {
		t.Fatalf("reader-path trace ctx %x/%x", got.Trace, got.Span)
	}
}
