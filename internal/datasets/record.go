package datasets

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record container: CRC-framed length-prefixed records, the TFRecord
// analogue. Each record is [uint64 length | uint32 crc(length) |
// payload | uint32 crc(payload)], where the payload is
// [uint32 label | JPEG bytes]. Record files are sequential-access; shuffle
// is provided by the pseudo-shuffling buffer in pipeline.go, exactly the
// mechanism the paper describes for TensorFlow ("a buffer of images is
// loaded into memory once and shuffled internally", §V-D).

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecordWriter writes framed records.
type RecordWriter struct {
	f *os.File
	w *bufio.Writer
}

// NewRecordWriter creates a record file.
func NewRecordWriter(path string) (*RecordWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &RecordWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Write appends one payload.
func (w *RecordWriter) Write(payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(hdr[:8], crcTable))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(payload, crcTable))
	_, err := w.w.Write(tail[:])
	return err
}

// Close flushes and closes the file.
func (w *RecordWriter) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// RecordReader reads framed records sequentially.
type RecordReader struct {
	f *os.File
	r *bufio.Reader
}

// OpenRecord opens a record file for sequential reading.
func OpenRecord(path string) (*RecordReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &RecordReader{f: f, r: bufio.NewReaderSize(f, 1<<20)}, nil
}

// Next returns the next payload or io.EOF.
func (r *RecordReader) Next() ([]byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, err
	}
	if crc32.Checksum(hdr[:8], crcTable) != binary.LittleEndian.Uint32(hdr[8:]) {
		return nil, fmt.Errorf("datasets: record length CRC mismatch")
	}
	n := binary.LittleEndian.Uint64(hdr[:8])
	if n > 1<<30 {
		return nil, fmt.Errorf("datasets: unreasonable record size %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(r.r, tail[:]); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(tail[:]) {
		return nil, fmt.Errorf("datasets: record payload CRC mismatch")
	}
	return payload, nil
}

// Close closes the file.
func (r *RecordReader) Close() error { return r.f.Close() }

// EncodeSample frames a labeled JPEG into a record payload.
func EncodeSample(label int, jpegBytes []byte) []byte {
	out := make([]byte, 4+len(jpegBytes))
	binary.LittleEndian.PutUint32(out[:4], uint32(label))
	copy(out[4:], jpegBytes)
	return out
}

// DecodeSample splits a record payload into label and JPEG bytes.
func DecodeSample(payload []byte) (label int, jpegBytes []byte, err error) {
	if len(payload) < 4 {
		return 0, nil, fmt.Errorf("datasets: short sample payload")
	}
	return int(binary.LittleEndian.Uint32(payload[:4])), payload[4:], nil
}

// WriteRecordDataset generates n synthetic JPEG samples into one or more
// record files (shards). Shard k receives samples with index ≡ k (mod
// shards), matching the paper's "ImageNet sharded to 1024 files" setup.
func WriteRecordDataset(pathPrefix string, spec Spec, n, shards int, seed uint64) ([]string, error) {
	if shards < 1 {
		shards = 1
	}
	paths := make([]string, shards)
	writers := make([]*RecordWriter, shards)
	for s := 0; s < shards; s++ {
		paths[s] = fmt.Sprintf("%s-%05d-of-%05d.rec", pathPrefix, s, shards)
		w, err := NewRecordWriter(paths[s])
		if err != nil {
			return nil, err
		}
		writers[s] = w
	}
	for i := 0; i < n; i++ {
		label := i % spec.Classes
		img := GenerateImage(spec, label, seed+uint64(i))
		jp, err := EncodeJPEG(spec, img)
		if err != nil {
			return nil, err
		}
		if err := writers[i%shards].Write(EncodeSample(label, jp)); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
