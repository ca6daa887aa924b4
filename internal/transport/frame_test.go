package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"deep500/internal/dist"
	"deep500/internal/tensor"
)

// TestFrameRoundTrip pins the codec both through the byte-slice path
// (AppendFrame/DecodeFrame) and the stream path (WriteFrame/ReadFrame) for
// full-precision and every quantized width.
func TestFrameRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(41)
	var scratch []byte
	for _, n := range []int{0, 1, 7, 100} {
		data := tensor.RandNormal(rng, 0, 1, n+1).Data()[:n]
		for bits := uint(0); bits <= 8; bits++ {
			f := EncodeVector(3, 2, data, bits)
			wire := AppendFrame(nil, &f)

			// The send path's one-pass encoder emits the same bytes, behind
			// whatever its buffer already holds.
			traced := f
			traced.Trace, traced.Span = 0xfeed, 0xbeef
			if one := appendVectorFrame([]byte("kept"), 3, 2, data, bits, 0xfeed, 0xbeef); !bytes.Equal(one, AppendFrame([]byte("kept"), &traced)) {
				t.Fatalf("n=%d bits=%d: appendVectorFrame differs from AppendFrame(EncodeVector)", n, bits)
			}

			got, used, err := DecodeFrame(wire)
			if err != nil {
				t.Fatalf("n=%d bits=%d: decode: %v", n, bits, err)
			}
			if used != len(wire) {
				t.Fatalf("n=%d bits=%d: consumed %d of %d bytes", n, bits, used, len(wire))
			}
			if got.Src != 3 || got.Tag != 2 || got.Count != uint32(n) {
				t.Fatalf("n=%d bits=%d: header %+v", n, bits, got)
			}
			if got.Trace != 0 || got.Span != 0 {
				t.Fatalf("n=%d bits=%d: untraced frame decoded trace ctx %x/%x", n, bits, got.Trace, got.Span)
			}

			streamed, err := ReadFrame(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("n=%d bits=%d: stream read: %v", n, bits, err)
			}
			if !bytes.Equal(streamed.Payload, got.Payload) {
				t.Fatalf("n=%d bits=%d: stream and slice payloads differ", n, bits)
			}

			vec, err := DecodeVector(&got)
			if err != nil {
				t.Fatal(err)
			}
			if len(vec) != n {
				t.Fatalf("n=%d bits=%d: decoded %d values", n, bits, len(vec))
			}

			// The connection readers' path: header, then readVector straight
			// off the stream into a recycled (dirty) slab, with the scratch
			// carried over from the previous frame. Same floats, whole frame
			// consumed.
			stream := bytes.NewReader(wire)
			hf, plen, err := readHeader(stream, make([]byte, headerLen))
			if err != nil {
				t.Fatalf("n=%d bits=%d: readHeader: %v", n, bits, err)
			}
			slab := make([]float32, n)
			for i := range slab {
				slab[i] = float32(math.NaN())
			}
			if scratch, err = readVector(stream, &hf, plen, slab, scratch); err != nil {
				t.Fatalf("n=%d bits=%d: readVector: %v", n, bits, err)
			}
			if stream.Len() != 0 {
				t.Fatalf("n=%d bits=%d: readVector left %d bytes of the frame unread", n, bits, stream.Len())
			}
			for i := range vec {
				if math.Float32bits(slab[i]) != math.Float32bits(vec[i]) {
					t.Fatalf("n=%d bits=%d: streamed value %d is %g, DecodeVector gave %g", n, bits, i, slab[i], vec[i])
				}
			}
			if bits == 0 || n == 0 {
				for i := range vec {
					if vec[i] != data[i] {
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
	f := EncodeVector(1, 0, []float32{1, 2, 3}, 0)
	return mutate(AppendFrame(nil, &f))
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
		"quant bits zero": func() []byte {
			f := EncodeVector(1, 0, []float32{1, 2, 3}, 4)
			b := AppendFrame(nil, &f)
			b[6] = 0
			return b
		}(),
		"quant bits nine": func() []byte {
			f := EncodeVector(1, 0, []float32{1, 2, 3}, 4)
			b := AppendFrame(nil, &f)
			b[6] = 9
			return b
		}(),
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
		if _, _, err := DecodeFrame(wire); err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
		}
		if _, err := ReadFrame(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s: stream decode succeeded on corrupt input", name)
		}
	}
}

// TestDecodeVectorRejects: a hand-built frame whose payload does not match
// its fields, or that carries no vector, is an error and never a panic.
func TestDecodeVectorRejects(t *testing.T) {
	short := EncodeVector(1, 0, []float32{1, 2, 3}, 0)
	short.Payload = short.Payload[:8]
	quant := EncodeVector(1, 0, []float32{1, 2, 3}, 4)
	quant.Payload = quant.Payload[:3]
	for name, f := range map[string]Frame{
		"short float payload": short,
		"short quant payload": quant,
		"hello":               {Type: FrameHello, Src: 1},
		"unknown type":        {Type: 77},
	} {
		if v, err := DecodeVector(&f); err == nil {
			t.Errorf("%s: decoded %v", name, v)
		}
	}
}

// FuzzDecodeFrame is the decoder's no-panic guarantee: arbitrary bytes
// either fail cleanly or decode to a frame whose re-encoding decodes
// identically. (go test runs the seed corpus; go test -fuzz explores.)
func FuzzDecodeFrame(f *testing.F) {
	good := EncodeVector(2, 1, []float32{-1, 0.5, 3}, 0)
	f.Add(AppendFrame(nil, &good))
	quant := EncodeVector(0, 0, []float32{-1, 0.5, 3, 0.25, 9}, 3)
	f.Add(AppendFrame(nil, &quant))
	hello := Frame{Type: FrameHello, Src: 4}
	f.Add(AppendFrame(nil, &hello))
	traced := EncodeVector(1, 3, []float32{2, 4}, 0)
	traced.Trace, traced.Span = 0xdeadbeefcafef00d, 0x0123456789abcdef
	f.Add(AppendFrame(nil, &traced))
	f.Add([]byte("D5TP"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, wire []byte) {
		fr, used, err := DecodeFrame(wire) // must never panic
		if err != nil {
			return
		}
		if used < headerLen || used > len(wire) {
			t.Fatalf("consumed %d of %d bytes", used, len(wire))
		}
		re := AppendFrame(nil, &fr)
		fr2, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Bits != fr.Bits || fr2.Src != fr.Src ||
			fr2.Tag != fr.Tag || fr2.Count != fr.Count ||
			fr2.Trace != fr.Trace || fr2.Span != fr.Span || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", fr, fr2)
		}
		if fr.Type == FrameF32 || fr.Type == FrameQuant {
			if _, err := DecodeVector(&fr); err != nil {
				t.Fatalf("validated frame fails vector decode: %v", err)
			}
		}
	})
}

// TestFrameTraceRoundTrip pins the version-2 trace fields through both
// decode paths.
func TestFrameTraceRoundTrip(t *testing.T) {
	f := EncodeVector(3, 2, []float32{1, 2}, 0)
	f.Trace, f.Span = 0xfeedface12345678, 0x1122334455667788
	wire := AppendFrame(nil, &f)

	got, _, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != f.Trace || got.Span != f.Span {
		t.Fatalf("decoded trace ctx %x/%x, want %x/%x", got.Trace, got.Span, f.Trace, f.Span)
	}
	streamed, err := ReadFrame(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Trace != f.Trace || streamed.Span != f.Span {
		t.Fatalf("streamed trace ctx %x/%x", streamed.Trace, streamed.Span)
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
		f := EncodeVector(0, 0, data, bits)
		if want := 4 + dist.QuantizedLen(len(data), bits); len(f.Payload) != want {
			t.Fatalf("bits=%d: payload %d bytes, want %d", bits, len(f.Payload), want)
		}
	}
	full := EncodeVector(0, 0, data, 0)
	if len(full.Payload) != 4000 {
		t.Fatalf("full-precision payload %d bytes", len(full.Payload))
	}
}
