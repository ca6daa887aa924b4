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
// Frames carry full-precision float32 vectors, so a rank receives exactly
// the floats its peer sent, as it does on the simulator.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Wire format: every message is one frame — a fixed 40-byte header
// followed by the payload.
//
//	offset  size  field
//	0       4     magic "D5TP"
//	4       1     version (2)
//	5       1     type (FrameF32 = 0 | FrameHello = 2)
//	6       2     reserved (0)
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
// FrameF32 payloads are count little-endian float32s. FrameHello has no
// payload; it is the first frame on every dialed connection and identifies
// the dialer's rank (Src). Decoding validates every field and returns errors — a
// truncated, oversized or corrupted frame can never panic a server.

// FrameType discriminates the payload encoding of a frame.
type FrameType uint8

const (
	// FrameF32 carries a full-precision float32 vector.
	FrameF32 FrameType = 0
	// FrameHello opens a connection: no payload, Src is the dialer's rank.
	// It is 2, not 1, so hello frames keep their version-2 bytes.
	FrameHello FrameType = 2
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

// readVector reads the payload of the float frame f (header already
// validated) from r straight into dst's own storage, which holds f.Count
// elements. It is the one decoder of the vector wire format, and the
// connection readers call it with a recycled dst.
func readVector(r io.Reader, f *Frame, dst []float32) error {
	if f.Type != FrameF32 {
		return fmt.Errorf("transport: frame type %d carries no vector", f.Type)
	}
	b := f32Bytes(dst)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	toWireOrder(b)
	return nil
}

// appendVectorFrame appends the complete frame — header and payload — for a
// float32 vector from src with tag; trace and span are the frame's trace
// context. It is the send path's encoder, writing into a buffer the caller
// reuses.
func appendVectorFrame(dst []byte, src, tag int, data []float32, trace, span uint64) []byte {
	f := Frame{Type: FrameF32, Src: int32(src), Tag: int32(tag), Count: uint32(len(data)), Trace: trace, Span: span}
	return appendF32(appendHeader(dst, &f, 4*len(data)), data)
}

// validate checks decoded header fields against the declared payload length
// plen for structural consistency; it needs no payload bytes, so receivers
// run it before reading (or allocating) any.
func (f *Frame) validate(plen int) error {
	switch f.Type {
	case FrameF32:
		if plen != int(f.Count)*4 {
			return fmt.Errorf("transport: float frame count %d needs %d payload bytes, got %d",
				f.Count, f.Count*4, plen)
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
	if h[6] != 0 || h[7] != 0 {
		return Frame{}, 0, fmt.Errorf("transport: reserved header bytes %#x %#x set", h[6], h[7])
	}
	f := Frame{
		Type:  FrameType(h[5]),
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
