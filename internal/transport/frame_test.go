package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"deep500/internal/dist"
	"deep500/internal/tensor"
)

// wantFrame is a vector frame assembled field by field and encoded through
// AppendFrame: the reference the send path's one-pass encoder,
// appendVectorFrame, must match byte for byte.
func wantFrame(src, tag int, data []float32, bits uint, trace, span uint64) []byte {
	f := Frame{Type: FrameF32, Src: int32(src), Tag: int32(tag), Count: uint32(len(data)), Trace: trace, Span: span}
	if bits > 0 && len(data) > 0 {
		codes, scale := dist.Quantize(data, bits)
		f.Type, f.Bits = FrameQuant, uint8(bits)
		f.Payload = append(binary.LittleEndian.AppendUint32(nil, math.Float32bits(scale)), codes...)
	} else {
		for _, v := range data {
			f.Payload = binary.LittleEndian.AppendUint32(f.Payload, math.Float32bits(v))
		}
	}
	return AppendFrame(nil, &f)
}

// readVectorFrame decodes one vector frame the way a connection reader
// does: the header, then readVector into a fresh slice.
func readVectorFrame(wire []byte) (Frame, []float32, error) {
	r := bytes.NewReader(wire)
	f, plen, err := readHeader(r, make([]byte, headerLen))
	if err != nil {
		return Frame{}, nil, err
	}
	data := make([]float32, f.Count)
	if _, err := readVector(r, &f, plen, data, nil); err != nil {
		return Frame{}, nil, err
	}
	return f, data, nil
}

// TestFrameRoundTrip pins the send path's encoder (appendVectorFrame)
// against the field-by-field encoding and the stream decoders (ReadFrame, and readHeader plus readVector as
// the connection readers use them) for full-precision and every quantized
// width.
func TestFrameRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(41)
	var scratch []byte
	for _, n := range []int{0, 1, 7, 100} {
		data := tensor.RandNormal(rng, 0, 1, n+1).Data()[:n]
		for bits := uint(0); bits <= 8; bits++ {
			wire := appendVectorFrame(nil, 3, 2, data, bits, 0, 0)
			if !bytes.Equal(wire, wantFrame(3, 2, data, bits, 0, 0)) {
				t.Fatalf("n=%d bits=%d: appendVectorFrame differs from the field-by-field encoding", n, bits)
			}
			// Traced, and appended behind whatever the buffer already holds.
			kept := appendVectorFrame([]byte("kept"), 3, 2, data, bits, 0xfeed, 0xbeef)
			if !bytes.Equal(kept, append([]byte("kept"), wantFrame(3, 2, data, bits, 0xfeed, 0xbeef)...)) {
				t.Fatalf("n=%d bits=%d: traced appendVectorFrame differs from the field-by-field encoding", n, bits)
			}

			got, err := ReadFrame(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("n=%d bits=%d: decode: %v", n, bits, err)
			}
			if got.Src != 3 || got.Tag != 2 || got.Count != uint32(n) {
				t.Fatalf("n=%d bits=%d: header %+v", n, bits, got)
			}
			if got.Trace != 0 || got.Span != 0 {
				t.Fatalf("n=%d bits=%d: untraced frame decoded trace ctx %x/%x", n, bits, got.Trace, got.Span)
			}
			if re := AppendFrame(nil, &got); !bytes.Equal(re, wire) {
				t.Fatalf("n=%d bits=%d: AppendFrame of the decoded frame differs from the sent bytes", n, bits)
			}

			// The connection readers' path: header, then readVector straight
			// off the stream into a recycled (dirty) slab, with the scratch
			// carried over from the previous frame. Whole frame consumed.
			stream := bytes.NewReader(wire)
			hf, plen, err := readHeader(stream, make([]byte, headerLen))
			if err != nil {
				t.Fatalf("n=%d bits=%d: readHeader: %v", n, bits, err)
			}
			vec := make([]float32, n)
			for i := range vec {
				vec[i] = float32(math.NaN())
			}
			if scratch, err = readVector(stream, &hf, plen, vec, scratch); err != nil {
				t.Fatalf("n=%d bits=%d: readVector: %v", n, bits, err)
			}
			if stream.Len() != 0 {
				t.Fatalf("n=%d bits=%d: readVector left %d bytes of the frame unread", n, bits, stream.Len())
			}
			if bits == 0 || n == 0 {
				for i := range vec {
					if math.Float32bits(vec[i]) != math.Float32bits(data[i]) {
						t.Fatalf("n=%d: full-precision value %d changed: %g vs %g", n, i, vec[i], data[i])
					}
				}
				continue
			}
			// Quantized payloads reconstruct within half a step (the dist
			// package's property tests pin the codec itself; here we check
			// the frame carried scale and codes faithfully).
			scale := math.Float32frombits(binary.LittleEndian.Uint32(got.Payload[0:4]))
			halfStep := float64(scale) / float64(uint(1)<<bits-1)
			for i := range vec {
				if d := math.Abs(float64(vec[i] - data[i])); d > halfStep+1e-6 {
					t.Fatalf("n=%d bits=%d: value %d error %g exceeds %g", n, bits, i, d, halfStep)
				}
			}
		}
	}
}

// corrupt returns a valid encoded frame with one mutation applied.
func corrupt(t *testing.T, mutate func(b []byte) []byte) []byte {
	t.Helper()
	return mutate(appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 0, 0, 0))
}

// TestFrameDecodeRejects drives the decoder through every corruption class:
// all must return an error, none may panic or succeed.
func TestFrameDecodeRejects(t *testing.T) {
	quant := func(bits byte) []byte {
		b := appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 4, 0, 0)
		b[6] = bits
		return b
	}
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": corrupt(t, func(b []byte) []byte { return b[:10] }),
		"bad magic":        corrupt(t, func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      corrupt(t, func(b []byte) []byte { b[4] = 9; return b }),
		"unknown type":     corrupt(t, func(b []byte) []byte { b[5] = 200; return b }),
		"f32 with bits":    corrupt(t, func(b []byte) []byte { b[6] = 4; return b }),
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
		"quant bits zero": quant(0),
		"quant bits nine": quant(9),
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
	short, err := ReadFrame(bytes.NewReader(appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	short.Payload = short.Payload[:8]
	quant, err := ReadFrame(bytes.NewReader(appendVectorFrame(nil, 1, 0, []float32{1, 2, 3}, 4, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	quant.Payload = quant.Payload[:3]
	for name, f := range map[string]Frame{
		"short float payload": short,
		"short quant payload": quant,
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
	f.Add(appendVectorFrame(nil, 2, 1, []float32{-1, 0.5, 3}, 0, 0, 0))
	f.Add(appendVectorFrame(nil, 0, 0, []float32{-1, 0.5, 3, 0.25, 9}, 3, 0, 0))
	hello := Frame{Type: FrameHello, Src: 4}
	f.Add(AppendFrame(nil, &hello))
	f.Add(appendVectorFrame(nil, 1, 3, []float32{2, 4}, 0, 0xdeadbeefcafef00d, 0x0123456789abcdef))
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
		if fr2.Type != fr.Type || fr2.Bits != fr.Bits || fr2.Src != fr.Src ||
			fr2.Tag != fr.Tag || fr2.Count != fr.Count ||
			fr2.Trace != fr.Trace || fr2.Span != fr.Span || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", fr, fr2)
		}
		if fr.Type == FrameF32 || fr.Type == FrameQuant {
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
	wire := appendVectorFrame(nil, 3, 2, []float32{1, 2}, 0, traceID, spanID)

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

// TestQuantizedFrameWireSize pins the compression claim: a b-bit frame's
// payload is 4 (scale) + ceil(n·b/8) bytes.
func TestQuantizedFrameWireSize(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i%17) - 8
	}
	for bits := uint(1); bits <= 8; bits++ {
		payload := len(appendVectorFrame(nil, 0, 0, data, bits, 0, 0)) - headerLen
		if want := 4 + dist.QuantizedLen(len(data), bits); payload != want {
			t.Fatalf("bits=%d: payload %d bytes, want %d", bits, payload, want)
		}
	}
	if full := len(appendVectorFrame(nil, 0, 0, data, 0, 0, 0)) - headerLen; full != 4000 {
		t.Fatalf("full-precision payload %d bytes", full)
	}
}
