package datasets

import (
	"io"
	"path/filepath"
	"sort"
	"testing"

	"deep500/internal/tensor"
)

func TestGenerateImageDeterministic(t *testing.T) {
	a := GenerateImage(CIFAR10, 3, 42)
	b := GenerateImage(CIFAR10, 3, 42)
	if len(a) != 32*32*3 {
		t.Fatalf("len %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	c := GenerateImage(CIFAR10, 4, 42)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different labels produced identical images")
	}
}

func TestJPEGRoundTrip(t *testing.T) {
	for _, spec := range []Spec{MNIST, CIFAR10} {
		img := GenerateImage(spec, 1, 7)
		jp, err := EncodeJPEG(spec, img)
		if err != nil {
			t.Fatal(err)
		}
		if len(jp) == 0 || len(jp) >= spec.PixelBytes() {
			t.Fatalf("%s: jpeg %d bytes vs raw %d (no compression?)", spec.Name, len(jp), spec.PixelBytes())
		}
		back, err := DecodeJPEG(spec, jp)
		if err != nil {
			t.Fatal(err)
		}
		// lossy: check coarse agreement
		var maxd int
		for i := range img {
			d := int(img[i]) - int(back[i])
			if d < 0 {
				d = -d
			}
			if d > maxd {
				maxd = d
			}
		}
		if maxd > 60 {
			t.Fatalf("%s: max pixel error %d after jpeg round trip", spec.Name, maxd)
		}
	}
}

func TestRawBinaryContainer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mnist.bin")
	if err := WriteRawBinary(path, MNIST, 30, 1); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenRawBinary(path, MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 30 {
		t.Fatalf("len %d", ds.Len())
	}
	if !tensor.ShapeEq(ds.SampleShape(), []int{1, 28, 28}) {
		t.Fatalf("shape %v", ds.SampleShape())
	}
	buf := make([]float32, 28*28)
	if label := ds.Read(13, buf); label != 3 {
		t.Fatalf("label %d", label)
	}
	for _, v := range buf {
		if v < 0 || v >= 1.00001 {
			t.Fatalf("pixel %v out of range", v)
		}
	}
}

func TestRecordFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.rec")
	w, err := NewRecordWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("hello"), []byte(""), make([]byte, 100000)}
	for _, p := range payloads {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRecordCRCDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rec")
	w, _ := NewRecordWriter(path)
	w.Write([]byte("payload-payload"))
	w.Close()
	// flip a payload byte
	raw, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[14] ^= 0xFF
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	r, _ := OpenRecord(path)
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestEncodeDecodeSample(t *testing.T) {
	p := EncodeSample(77, []byte{1, 2, 3})
	label, jp, err := DecodeSample(p)
	if err != nil || label != 77 || len(jp) != 3 || jp[2] != 3 {
		t.Fatalf("label=%d jp=%v err=%v", label, jp, err)
	}
	if _, _, err := DecodeSample([]byte{1}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestShardedRecordDataset(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteRecordDataset(filepath.Join(dir, "ds"), MNIST, 20, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("%d shards", len(paths))
	}
	total := 0
	for _, p := range paths {
		r, err := OpenRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := r.Next(); err != nil {
				break
			}
			total++
		}
		r.Close()
	}
	if total != 20 {
		t.Fatalf("total records %d", total)
	}
}

func TestIndexedTarRandomAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.tar")
	if err := WriteIndexedTar(path, MNIST, 12, 3); err != nil {
		t.Fatal(err)
	}
	it, err := OpenIndexedTar(path, MNIST)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Len() != 12 {
		t.Fatalf("len %d", it.Len())
	}
	// random access out of order, compare against regeneration
	for _, i := range []int{7, 0, 11, 3} {
		jp, label, err := it.ReadSample(i)
		if err != nil {
			t.Fatal(err)
		}
		if label != i%10 {
			t.Fatalf("sample %d label %d", i, label)
		}
		px, err := DecodeJPEG(MNIST, jp)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if len(px) != MNIST.PixelBytes() {
			t.Fatal("decode size")
		}
	}
	if _, _, err := it.ReadSample(99); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestDecodersAgree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.tar")
	if err := WriteIndexedTar(path, CIFAR10, 8, 9); err != nil {
		t.Fatal(err)
	}
	it, err := OpenIndexedTar(path, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	xb, lb, err := TarBatch(it, idx, BasicDecoder{})
	if err != nil {
		t.Fatal(err)
	}
	xt, lt, err := TarBatch(it, idx, TurboDecoder{})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(xb, xt, 0, 0) {
		t.Fatal("decoders disagree")
	}
	for i := range lb {
		if lb[i] != lt[i] {
			t.Fatal("labels disagree")
		}
	}
}

func TestRecordPipelineSequentialCoversAll(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteRecordDataset(filepath.Join(dir, "p"), MNIST, 25, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewRecordPipeline(paths, MNIST, 8, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var labels []int
	for {
		x, l, err := p.NextBatch(10)
		if err != nil {
			t.Fatal(err)
		}
		if x == nil {
			break
		}
		labels = append(labels, l...)
	}
	if len(labels) != 25 {
		t.Fatalf("streamed %d of 25", len(labels))
	}
}

func TestRecordPipelinePseudoShuffle(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteRecordDataset(filepath.Join(dir, "s"), MNIST, 40, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	read := func(shuffle bool, seed uint64) []int {
		p, err := NewRecordPipeline(paths, MNIST, 16, shuffle, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var out []int
		for {
			x, l, err := p.NextBatch(8)
			if err != nil {
				t.Fatal(err)
			}
			if x == nil {
				break
			}
			out = append(out, l...)
		}
		return out
	}
	seq := read(false, 1)
	shuf := read(true, 1)
	if len(seq) != 40 || len(shuf) != 40 {
		t.Fatalf("lengths %d %d", len(seq), len(shuf))
	}
	diff := false
	for i := range seq {
		if seq[i] != shuf[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("shuffle produced sequential order")
	}
	// multiset of labels must be identical
	a := append([]int(nil), seq...)
	b := append([]int(nil), shuf...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shuffle lost samples")
		}
	}
}

func TestSynthBatch(t *testing.T) {
	x, labels := SynthBatch(CIFAR10, 16, 3)
	if !tensor.ShapeEq(x.Shape(), []int{16, 3, 32, 32}) {
		t.Fatalf("shape %v", x.Shape())
	}
	if len(labels) != 16 {
		t.Fatal("labels")
	}
	for _, l := range labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d", l)
		}
	}
}

func readFile(path string) ([]byte, error)  { return osReadFile(path) }
func writeFile(path string, b []byte) error { return osWriteFile(path, b) }
