package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"unsafe"

	"deep500/internal/tensor"
)

// D5NX binary format: a compact, versioned, deterministic encoding of a
// Model. Layout (all integers are unsigned varints, strings are
// length-prefixed UTF-8, float32 data is little-endian):
//
//	magic "D5NX" | version | name | docstring
//	| nInputs  { name, rank, dims... }
//	| nOutputs { name }
//	| nInits   { name, tensor }
//	| nNodes   { name, opType, nIn {name}, nOut {name}, nAttrs {attr} }
//
// Determinism matters for reproducibility (paper pillar 5): initializers
// and attributes are written in sorted order so the same model always
// serializes to the same bytes.

const (
	d5nxMagic   = "D5NX"
	d5nxVersion = 1
	// d5nxVersionCkpt is version 2: the version-1 model body followed by a
	// training-state section (see checkpoint.go). Load accepts both and
	// drops the extra section, so a mid-training checkpoint can be served
	// as a plain model.
	d5nxVersionCkpt = 2
)

var errBadMagic = errors.New("graph: not a D5NX stream")

type writer struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (w *writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) varint(v int64) {
	if w.err != nil {
		return
	}
	n := binary.PutVarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) f64(f float64) { w.uvarint(math.Float64bits(f)) }

func (w *writer) tensor(t *tensor.Tensor) {
	w.uvarint(uint64(t.Rank()))
	for _, d := range t.Shape() {
		w.uvarint(uint64(d))
	}
	if w.err != nil {
		return
	}
	data := t.Data()
	if hostLittleEndian {
		// The float storage already is the stream's bytes.
		if len(data) > 0 {
			_, w.err = w.w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 4*len(data)))
		}
		return
	}
	var raw [512]byte
	for len(data) > 0 && w.err == nil {
		n := min(len(data), len(raw)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
		}
		_, w.err = w.w.Write(raw[:4*n])
		data = data[n:]
	}
}

// hostLittleEndian tells whether a []float32's memory already is D5NX's
// little-endian float encoding. Tests clear it to run the portable path.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func (w *writer) attr(a Attribute) {
	w.str(a.Name)
	w.uvarint(uint64(a.Type))
	switch a.Type {
	case AttrInt:
		w.varint(a.I)
	case AttrFloat:
		w.f64(a.F)
	case AttrString:
		w.str(a.S)
	case AttrInts:
		w.uvarint(uint64(len(a.Ints)))
		for _, v := range a.Ints {
			w.varint(v)
		}
	case AttrFloats:
		w.uvarint(uint64(len(a.Floats)))
		for _, v := range a.Floats {
			w.f64(v)
		}
	case AttrTensor:
		w.tensor(a.T)
	}
}

// Encode writes the model in D5NX binary form.
func Encode(m *Model, out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	if err := w.header(d5nxVersion); err != nil {
		return err
	}
	w.model(m)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// header writes the magic and version.
func (w *writer) header(version uint64) error {
	if _, err := w.w.WriteString(d5nxMagic); err != nil {
		return err
	}
	w.uvarint(version)
	return w.err
}

// model writes the version-1 model body (everything after the version).
func (w *writer) model(m *Model) {
	w.str(m.Name)
	w.str(m.DocString)

	w.uvarint(uint64(len(m.Inputs)))
	for _, in := range m.Inputs {
		w.str(in.Name)
		w.uvarint(uint64(len(in.Shape)))
		for _, d := range in.Shape {
			w.varint(int64(d))
		}
	}
	w.uvarint(uint64(len(m.Outputs)))
	for _, o := range m.Outputs {
		w.str(o)
	}
	names := m.ParamNames()
	w.uvarint(uint64(len(names)))
	for _, name := range names {
		w.str(name)
		w.tensor(m.Initializers[name])
	}
	w.uvarint(uint64(len(m.Nodes)))
	for _, n := range m.Nodes {
		w.str(n.Name)
		w.str(n.OpType)
		w.uvarint(uint64(len(n.Inputs)))
		for _, s := range n.Inputs {
			w.str(s)
		}
		w.uvarint(uint64(len(n.Outputs)))
		for _, s := range n.Outputs {
			w.str(s)
		}
		attrNames := make([]string, 0, len(n.Attrs))
		for a := range n.Attrs {
			attrNames = append(attrNames, a)
		}
		sort.Strings(attrNames)
		w.uvarint(uint64(len(attrNames)))
		for _, a := range attrNames {
			w.attr(n.Attrs[a])
		}
	}
}

// Decoding limits. A D5NX stream is untrusted input — a model upload, a
// checkpoint read back from disk — so every count and rank it declares is
// bounded, a tensor's element count is checked for overflow, and lists and
// byte buffers are filled chunk by chunk: a header that lies about a length
// costs at most one chunk of memory beyond the bytes the stream holds.
const (
	maxRank   = 16
	maxCount  = 1 << 30 // elements of one list: inputs, nodes, a sampler order, ...
	maxStrLen = 1 << 24
	maxElems  = 1 << 31 // float32 elements of one tensor
	readChunk = 1 << 16 // bytes
	listChunk = 1 << 10 // elements
)

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.err = err
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.err = err
	return v
}

// count reads a length, rank or dimension and rejects one above limit.
func (r *reader) count(what string, limit int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(limit) {
		r.err = fmt.Errorf("graph: unreasonable %s %d", what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// read returns the next n bytes, read in chunks of readChunk and joined
// once all of them have arrived.
func (r *reader) read(n int) []byte {
	var chunks [][]byte
	for got := 0; got < n && r.err == nil; {
		c := make([]byte, min(n-got, readChunk))
		_, r.err = io.ReadFull(r.r, c)
		chunks = append(chunks, c)
		got += len(c)
	}
	if r.err != nil {
		return nil
	}
	return bytes.Join(chunks, nil)
}

// list reads a count and then that many elements with elem, collected in
// chunks of listChunk and joined once all of them have been read.
func list[T any](r *reader, what string, elem func() T) []T {
	n := r.count(what, maxCount)
	var chunks [][]T
	for left := n; left > 0 && r.err == nil; left -= len(chunks[len(chunks)-1]) {
		c := make([]T, 0, min(left, listChunk))
		for len(c) < cap(c) && r.err == nil {
			c = append(c, elem())
		}
		chunks = append(chunks, c)
	}
	if r.err != nil {
		return nil
	}
	return slices.Concat(chunks...)
}

func (r *reader) str() string {
	return string(r.read(r.count("string length", maxStrLen)))
}

func (r *reader) f64() float64 { return math.Float64frombits(r.uvarint()) }

func (r *reader) tensor() *tensor.Tensor {
	shape := make([]int, r.count("tensor rank", maxRank))
	n := 1
	for i := range shape {
		d := r.count("tensor dimension", maxElems)
		if d > 0 && n > maxElems/d {
			r.err = fmt.Errorf("graph: tensor shape %v… exceeds %d elements", shape[:i+1], maxElems)
		}
		shape[i] = d
		n *= d
	}
	raw := r.read(4 * n)
	if r.err != nil {
		return nil
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return tensor.From(data, shape...)
}

func (r *reader) attr() Attribute {
	a := Attribute{Name: r.str(), Type: AttrType(r.uvarint())}
	switch a.Type {
	case AttrInt:
		a.I = r.varint()
	case AttrFloat:
		a.F = r.f64()
	case AttrString:
		a.S = r.str()
	case AttrInts:
		a.Ints = list(r, "attribute length", r.varint)
	case AttrFloats:
		a.Floats = list(r, "attribute length", r.f64)
	case AttrTensor:
		a.T = r.tensor()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("graph: unknown attribute type %d", a.Type)
		}
	}
	return a
}

// Decode reads a D5NX binary model. Version-2 (checkpoint) streams are
// accepted; their trailing training-state section is ignored — use
// DecodeCheckpoint to recover it.
func Decode(in io.Reader) (*Model, error) {
	r := &reader{r: bufio.NewReader(in)}
	if _, err := r.header(); err != nil {
		return nil, err
	}
	return r.model()
}

// header reads the magic and returns the version.
func (r *reader) header() (uint64, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r.r, magic); err != nil {
		return 0, err
	}
	if string(magic) != d5nxMagic {
		return 0, errBadMagic
	}
	v := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	if v != d5nxVersion && v != d5nxVersionCkpt {
		return 0, fmt.Errorf("graph: unsupported D5NX version %d", v)
	}
	return v, nil
}

// model reads the version-1 model body (everything after the version).
func (r *reader) model() (*Model, error) {
	m := NewModel(r.str())
	m.DocString = r.str()
	m.Inputs = list(r, "input count", func() TensorInfo {
		in := TensorInfo{Name: r.str(), Shape: make([]int, r.count("input rank", maxRank))}
		for j := range in.Shape {
			in.Shape[j] = int(r.varint())
		}
		return in
	})
	m.Outputs = list(r, "output count", r.str)
	nInit := r.count("initializer count", maxCount)
	for i := 0; i < nInit && r.err == nil; i++ {
		name := r.str()
		if t := r.tensor(); r.err == nil {
			m.Initializers[name] = t
		}
	}
	m.Nodes = list(r, "node count", func() *Node {
		name, opType := r.str(), r.str()
		inputs := list(r, "node input count", r.str)
		outputs := list(r, "node output count", r.str)
		attrs := list(r, "attribute count", r.attr)
		return NewNode(opType, name, inputs, outputs, attrs...)
	})
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// Save writes the model to a file in D5NX binary form. The write is atomic
// (temp file + rename), so a crash mid-save never leaves a truncated model
// at path.
func Save(m *Model, path string) error {
	return WriteFileAtomic(path, func(out io.Writer) error {
		return Encode(m, out)
	})
}

// WriteFileAtomic writes a file by streaming through write into a temp file
// in the destination directory, syncing, renaming over path and syncing
// the directory. Readers never observe a partial file: they see either the
// old content or the new, and once it returns nil the new content survives
// a power loss. The checkpoint writer and Save share this path.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// The new name is durable only once the directory is: without this a
	// power loss could bring the previous file back.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads a D5NX binary model from a file.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
