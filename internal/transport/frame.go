// Package transport is the networked fabric of Deep500-Go's Level 3: a
// TCP point-to-point transport with length-prefixed binary framing,
// persistent reused connections, read/write deadlines and bounded
// retry-with-backoff dialing. TCPRank implements the same fabric surface
// as the in-process simulator (*mpi.Rank) — the dist.Rank interface — so
// every distributed optimizer (DSGD, DPSGD, model averaging, sparse,
// parameter server) and the one dist.AllreduceSum run unchanged over real
// sockets instead of goroutine mailboxes. Failures are returned as
// *NetError values, never raised as panics.
//
// Frames carry either full-precision float32 vectors or the gradient
// quantization wire format of dist.Quantize (packed b-bit codes + shared
// absmax scale); a rank built with QuantizeBits compresses every payload
// transparently, trading 32/b wire bytes for rounding error.
package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"deep500/internal/dist"
)

// Wire format: every message is one frame — a fixed 40-byte header
// followed by the payload.
//
//	offset  size  field
//	0       4     magic "D5TP"
//	4       1     version (2)
//	5       1     type (FrameF32 | FrameQuant | FrameHello)
//	6       1     quantization bits (FrameQuant only, 1..8; else 0)
//	7       1     reserved (0)
//	8       4     source rank, int32 little-endian
//	12      4     message tag, int32 little-endian
//	16      4     decoded float32 count, uint32 little-endian
//	20      4     payload byte length, uint32 little-endian
//	24      8     trace ID, uint64 little-endian (0 = untraced)
//	32      8     parent span ID, uint64 little-endian
//
// Version 2 appended the two trace-context fields to the version 1
// layout; the first 24 bytes are unchanged. The trace fields carry the
// same identifiers as the d500-trace HTTP header, so a distributed step's
// collectives join the launcher's trace.
//
// FrameF32 payloads are count little-endian float32s. FrameQuant payloads
// are a 4-byte little-endian scale followed by the packed codes
// (dist.QuantizedLen(count, bits) bytes). FrameHello has no payload; it is
// the first frame on every dialed connection and identifies the dialer's
// rank (Src). Decoding validates every field and returns errors — a
// truncated, oversized or corrupted frame can never panic a server.

// FrameType discriminates the payload encoding of a frame.
type FrameType uint8

const (
	// FrameF32 carries a full-precision float32 vector.
	FrameF32 FrameType = iota
	// FrameQuant carries a dist.Quantize-packed vector plus its scale.
	FrameQuant
	// FrameHello opens a connection: no payload, Src is the dialer's rank.
	FrameHello
)

const (
	// headerLen is the fixed frame header size in bytes.
	headerLen = 40
	// frameVersion is the current wire version.
	frameVersion = 2
	// MaxPayload bounds a frame's payload (256 MiB — far above any packed
	// parameter vector in the zoo); declared lengths beyond it are rejected
	// before allocation, so a corrupt header cannot OOM the receiver.
	MaxPayload = 256 << 20
)

// magic is the frame preamble.
var magic = [4]byte{'D', '5', 'T', 'P'}

// Frame is one decoded wire message.
type Frame struct {
	Type FrameType
	// Bits is the quantization width of a FrameQuant payload.
	Bits uint8
	// Src is the sender's rank.
	Src int32
	// Tag is the message tag (dist.TagGrad, dist.TagDone, ...).
	Tag int32
	// Count is the decoded float32 element count.
	Count uint32
	// Trace is the trace ID of the step this frame belongs to (0 when the
	// sender is untraced).
	Trace uint64
	// Span is the sender-side parent span ID for Trace (0 when untraced).
	Span uint64
	// Payload is the raw payload bytes (see the wire format above).
	Payload []byte
}

// appendHeader appends the wire header of f, declaring plen payload bytes.
func appendHeader(dst []byte, f *Frame, plen int) []byte {
	var h [headerLen]byte
	copy(h[0:4], magic[:])
	h[4] = frameVersion
	h[5] = byte(f.Type)
	h[6] = f.Bits
	binary.LittleEndian.PutUint32(h[8:12], uint32(f.Src))
	binary.LittleEndian.PutUint32(h[12:16], uint32(f.Tag))
	binary.LittleEndian.PutUint32(h[16:20], f.Count)
	binary.LittleEndian.PutUint32(h[20:24], uint32(plen))
	binary.LittleEndian.PutUint64(h[24:32], f.Trace)
	binary.LittleEndian.PutUint64(h[32:40], f.Span)
	return append(dst, h[:]...)
}

// AppendFrame appends f's wire encoding to dst and returns the result.
func AppendFrame(dst []byte, f *Frame) []byte {
	return append(appendHeader(dst, f, len(f.Payload)), f.Payload...)
}

// hostLittleEndian tells whether a []float32's memory already is the wire
// layout, which makes encoding and decoding a payload one bulk copy.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views data's storage as bytes (host byte order).
func f32Bytes(data []float32) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}

// toWireOrder converts b, a run of float32s, between host and wire byte
// order in place: nothing to do on a little-endian host, a 4-byte swap per
// element otherwise.
func toWireOrder(b []byte) {
	if hostLittleEndian {
		return
	}
	for ; len(b) >= 4; b = b[4:] {
		b[0], b[1], b[2], b[3] = b[3], b[2], b[1], b[0]
	}
}

// appendF32 appends data as little-endian float32s in one bulk copy.
func appendF32(dst []byte, data []float32) []byte {
	start := len(dst)
	dst = append(dst, f32Bytes(data)...)
	toWireOrder(dst[start:])
	return dst
}

// readVector reads the plen payload bytes of the vector frame f (FrameF32 or
// FrameQuant, header already validated against plen) from r and decodes them
// into dst, which holds f.Count elements. It is the one decoder of the vector
// wire format: the connection readers call it with a recycled dst, DecodeVector
// with a fresh one. A float payload is read straight into dst's own storage; a
// quantized one goes through scratch, which is grown as needed and returned
// for the caller to pass in again.
func readVector(r io.Reader, f *Frame, plen int, dst []float32, scratch []byte) ([]byte, error) {
	switch f.Type {
	case FrameF32:
		b := f32Bytes(dst)
		if _, err := io.ReadFull(r, b); err != nil {
			return scratch, err
		}
		toWireOrder(b)
		return scratch, nil
	case FrameQuant:
		scratch = slices.Grow(scratch[:0], plen)[:plen]
		if _, err := io.ReadFull(r, scratch); err != nil {
			return scratch, err
		}
		scale := math.Float32frombits(binary.LittleEndian.Uint32(scratch))
		dist.Dequantize(scratch[4:], scale, uint(f.Bits), dst)
		return scratch, nil
	}
	return scratch, fmt.Errorf("transport: frame type %d carries no vector", f.Type)
}

// appendVectorFrame appends the complete frame — header and payload — for a
// float32 vector from src with tag: full precision when bits is 0,
// dist.Quantize compression otherwise. trace and span are the frame's trace
// context. The bytes are exactly AppendFrame(dst, EncodeVector(src, tag,
// data, bits)) with those trace fields set, without the intermediate
// payload: this is the send path's encoder, writing into a buffer the
// caller reuses.
func appendVectorFrame(dst []byte, src, tag int, data []float32, bits uint, trace, span uint64) []byte {
	f := Frame{Type: FrameF32, Src: int32(src), Tag: int32(tag), Count: uint32(len(data)), Trace: trace, Span: span}
	if bits > 0 && len(data) > 0 {
		codes, scale := dist.Quantize(data, bits)
		f.Type, f.Bits = FrameQuant, uint8(bits)
		dst = appendHeader(dst, &f, 4+len(codes))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
		return append(dst, codes...)
	}
	return appendF32(appendHeader(dst, &f, 4*len(data)), data)
}

// validate checks decoded header fields against the declared payload length
// plen for structural consistency; it needs no payload bytes, so receivers
// run it before reading (or allocating) any.
func (f *Frame) validate(plen int) error {
	switch f.Type {
	case FrameF32:
		if f.Bits != 0 {
			return fmt.Errorf("transport: float frame with bits=%d", f.Bits)
		}
		if plen != int(f.Count)*4 {
			return fmt.Errorf("transport: float frame count %d needs %d payload bytes, got %d",
				f.Count, f.Count*4, plen)
		}
	case FrameQuant:
		if f.Bits == 0 || f.Bits > 8 {
			return fmt.Errorf("transport: quantized frame with bits=%d", f.Bits)
		}
		want := 4 + dist.QuantizedLen(int(f.Count), uint(f.Bits))
		if plen != want {
			return fmt.Errorf("transport: quantized frame count %d bits %d needs %d payload bytes, got %d",
				f.Count, f.Bits, want, plen)
		}
	case FrameHello:
		if plen != 0 || f.Count != 0 {
			return fmt.Errorf("transport: hello frame with payload")
		}
		if f.Src < 0 {
			return fmt.Errorf("transport: hello frame with negative rank %d", f.Src)
		}
	default:
		return fmt.Errorf("transport: unknown frame type %d", f.Type)
	}
	return nil
}

// decodeHeader parses and validates the fixed header fields, returning the
// declared payload length.
func decodeHeader(h []byte) (Frame, int, error) {
	if len(h) < headerLen {
		return Frame{}, 0, fmt.Errorf("transport: truncated header (%d of %d bytes)", len(h), headerLen)
	}
	if [4]byte(h[0:4]) != magic {
		return Frame{}, 0, fmt.Errorf("transport: bad magic %q", h[0:4])
	}
	if h[4] != frameVersion {
		return Frame{}, 0, fmt.Errorf("transport: unsupported frame version %d", h[4])
	}
	f := Frame{
		Type:  FrameType(h[5]),
		Bits:  h[6],
		Src:   int32(binary.LittleEndian.Uint32(h[8:12])),
		Tag:   int32(binary.LittleEndian.Uint32(h[12:16])),
		Count: binary.LittleEndian.Uint32(h[16:20]),
		Trace: binary.LittleEndian.Uint64(h[24:32]),
		Span:  binary.LittleEndian.Uint64(h[32:40]),
	}
	plen := binary.LittleEndian.Uint32(h[20:24])
	if plen > MaxPayload {
		return Frame{}, 0, fmt.Errorf("transport: payload length %d exceeds limit %d", plen, MaxPayload)
	}
	if f.Count > MaxPayload/4 {
		return Frame{}, 0, fmt.Errorf("transport: element count %d exceeds limit", f.Count)
	}
	return f, int(plen), nil
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the bytes consumed. Truncated, oversized and corrupt inputs return
// errors, never panic.
func DecodeFrame(b []byte) (Frame, int, error) {
	f, plen, err := decodeHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	if len(b) < headerLen+plen {
		return Frame{}, 0, fmt.Errorf("transport: truncated payload (%d of %d bytes)", len(b)-headerLen, plen)
	}
	if err := f.validate(plen); err != nil {
		return Frame{}, 0, err
	}
	f.Payload = b[headerLen : headerLen+plen]
	return f, headerLen + plen, nil
}

// WriteFrame writes f's wire encoding to w.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := AppendFrame(make([]byte, 0, headerLen+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// readHeader reads one frame header from r through the caller's buffer h
// (headerLen bytes, reusable across calls) and validates it, returning the
// frame without its payload and the payload length still to be read.
func readHeader(r io.Reader, h []byte) (Frame, int, error) {
	if _, err := io.ReadFull(r, h); err != nil {
		return Frame{}, 0, err
	}
	f, plen, err := decodeHeader(h)
	if err != nil {
		return Frame{}, 0, err
	}
	if err := f.validate(plen); err != nil {
		return Frame{}, 0, err
	}
	return f, plen, nil
}

// ReadFrame reads exactly one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	f, plen, err := readHeader(r, make([]byte, headerLen))
	if err != nil {
		return Frame{}, err
	}
	f.Payload = make([]byte, plen)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("transport: reading %d payload bytes: %w", plen, err)
	}
	return f, nil
}

// EncodeVector builds the frame for a float32 vector from src with tag:
// full precision when bits is 0, dist.Quantize compression otherwise.
func EncodeVector(src, tag int, data []float32, bits uint) Frame {
	if bits > 0 && len(data) > 0 {
		codes, scale := dist.Quantize(data, bits)
		payload := make([]byte, 4+len(codes))
		binary.LittleEndian.PutUint32(payload[0:4], math.Float32bits(scale))
		copy(payload[4:], codes)
		return Frame{Type: FrameQuant, Bits: uint8(bits), Src: int32(src), Tag: int32(tag),
			Count: uint32(len(data)), Payload: payload}
	}
	payload := appendF32(make([]byte, 0, 4*len(data)), data)
	return Frame{Type: FrameF32, Src: int32(src), Tag: int32(tag),
		Count: uint32(len(data)), Payload: payload}
}

// DecodeVector reconstructs the float32 vector of a FrameF32 or FrameQuant
// frame (quantized payloads are dequantized through dist.Dequantize). A frame
// whose fields and payload disagree returns an error.
func DecodeVector(f *Frame) ([]float32, error) {
	if err := f.validate(len(f.Payload)); err != nil {
		return nil, err
	}
	data := make([]float32, f.Count)
	if _, err := readVector(bytes.NewReader(f.Payload), f, len(f.Payload), data, nil); err != nil {
		return nil, err
	}
	return data, nil
}
