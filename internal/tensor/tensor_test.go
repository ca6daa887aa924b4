package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || x.Rank() != 3 {
		t.Fatalf("got size=%d rank=%d", x.Size(), x.Rank())
	}
	if x.Bytes() != 96 {
		t.Fatalf("bytes = %d, want 96", x.Bytes())
	}
}

var allocSink *Tensor

// TestNewShapeDoesNotEscape: a shape passed as scalars stays on the
// caller's stack, so New allocates its own shape copy, the Tensor and the
// data, and nothing else.
func TestNewShapeDoesNotEscape(t *testing.T) {
	n, h := 3, 5
	if a := testing.AllocsPerRun(100, func() { allocSink = New(n, h) }); a != 3 {
		t.Fatalf("New(n, h) allocates %v times, want 3", a)
	}
	data := make([]float32, n*h)
	if a := testing.AllocsPerRun(100, func() { allocSink = From(data, n, h) }); a != 2 {
		t.Fatalf("From(data, n, h) allocates %v times, want 2", a)
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.Size() != 1 || s.Data()[0] != 3.5 {
		t.Fatalf("bad scalar %v", s)
	}
}

func TestFromPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("From with wrong length did not panic")
		}
	}()
	From([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := From([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestElementwise(t *testing.T) {
	a := From([]float32{1, 2, 3}, 3)
	b := From([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 10 {
		t.Fatalf("Mul = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := From([]float32{1, 2}, 2)
	a.AddInPlace(From([]float32{10, 20}, 2))
	a.Scale(2)
	a.Axpy(3, From([]float32{1, 1}, 2))
	want := []float32{(1+10)*2 + 3, (2+20)*2 + 3}
	if a.Data()[0] != want[0] || a.Data()[1] != want[1] {
		t.Fatalf("got %v want %v", a.Data(), want)
	}
}

func TestReductions(t *testing.T) {
	x := From([]float32{-3, 1, 2}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if math.Abs(x.Norm2()-math.Sqrt(14)) > 1e-12 {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
}

func TestSumAxis0AndBroadcast(t *testing.T) {
	x := From([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	s := New(3)
	SumAxis0Into(s, x)
	if s.Data()[0] != 5 || s.Data()[2] != 9 {
		t.Fatalf("SumAxis0 = %v", s.Data())
	}
	x.BroadcastAddRow(From([]float32{10, 20, 30}, 3))
	if x.Data()[5] != 36 {
		t.Fatalf("BroadcastAddRow: %v", x.Data())
	}
}

func TestCompareNorms(t *testing.T) {
	a := From([]float32{1, 2, 3}, 3)
	b := From([]float32{1, 2, 4}, 3)
	d := Compare(a, b)
	if d.L1 != 1 || d.LInf != 1 || d.MaxErrorIdx != 2 {
		t.Fatalf("Compare = %+v", d)
	}
	if math.Abs(d.RelLInf-0.25) > 1e-12 {
		t.Fatalf("RelLInf = %v", d.RelLInf)
	}
}

func TestAllClose(t *testing.T) {
	a := From([]float32{1, 2}, 2)
	b := From([]float32{1.0001, 2}, 2)
	if !AllClose(a, b, 1e-3, 0) {
		t.Fatal("expected close")
	}
	if AllClose(a, b, 0, 1e-6) {
		t.Fatal("expected not close")
	}
}

func TestHasNaN(t *testing.T) {
	x := From([]float32{1, float32(math.NaN())}, 2)
	if !x.HasNaN() {
		t.Fatal("NaN not detected")
	}
	y := From([]float32{1, 2}, 2)
	if y.HasNaN() {
		t.Fatal("false NaN")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRNGNormMoments(t *testing.T) {
	rng := NewRNG(7)
	n := 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("mean=%v var=%v", mean, variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(1)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestInitializers(t *testing.T) {
	rng := NewRNG(3)
	x := XavierInit(rng, 100, 100, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range x.Data() {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("Xavier value %v out of range, limit %v", v, limit)
		}
	}
	h := HeInit(rng, 50, 2000)
	std := math.Sqrt(Dot(h, h)/float64(h.Size()) - h.Mean()*h.Mean())
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want)/want > 0.15 {
		t.Fatalf("He std = %v, want ≈ %v", std, want)
	}
}

// --- property-based tests ---

func boundedVec(raw []float32) []float32 {
	out := make([]float32, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		// keep magnitudes tame so fp32 associativity slack stays small
		out = append(out, float32(math.Mod(float64(v), 1000)))
	}
	if len(out) == 0 {
		out = append(out, 1)
	}
	return out
}

func TestPropAddCommutative(t *testing.T) {
	f := func(raw []float32) bool {
		v := boundedVec(raw)
		a := From(v, len(v))
		b := RandUniform(NewRNG(uint64(len(v))), -1, 1, len(v))
		x, y := Add(a, b), Add(b, a)
		for i := range x.Data() {
			if x.Data()[i] != y.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubIsAddInverse(t *testing.T) {
	f := func(raw []float32) bool {
		v := boundedVec(raw)
		a := From(v, len(v))
		b := RandUniform(NewRNG(99), -1, 1, len(v))
		back := Sub(Add(a, b), b)
		return AllClose(back, a, 1e-5, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropNormTriangleInequality(t *testing.T) {
	f := func(seed uint16) bool {
		rng := NewRNG(uint64(seed))
		n := rng.Intn(64) + 1
		a := RandNormal(rng, 0, 1, n)
		b := RandNormal(rng, 0, 1, n)
		return Add(a, b).Norm2() <= a.Norm2()+b.Norm2()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestArenaFreeBytesCounter checks the idle-bytes counter against a walk of
// the free lists through takes, puts, reuse and dropped buffers.
func TestArenaFreeBytesCounter(t *testing.T) {
	a := NewArena()
	walk := func() int64 {
		var b int64
		for _, list := range a.free {
			for _, buf := range list {
				b += int64(cap(buf)) * 4
			}
		}
		return b
	}
	check := func(when string) {
		t.Helper()
		if got, want := a.FreeBytes(), walk(); got != want {
			t.Fatalf("%s: FreeBytes %d, free lists hold %d", when, got, want)
		}
	}
	b1, b2, b3 := a.GetBuf(100), a.GetBuf(5000), a.GetBuf(210)
	check("all checked out")
	a.PutBuf(b1)
	a.PutBuf(b2)
	a.PutBuf(b3)
	check("all returned")
	if a.FreeBytes() != 4*(128+8192+256) {
		t.Fatalf("FreeBytes %d after returning classes 128, 8192 and 256", a.FreeBytes())
	}
	a.PutBuf(make([]float32, 100)) // not a size class: dropped
	check("foreign buffer dropped")
	a.GetBuf(120)
	a.PutBuf(a.GetBuf(200))
	check("reused")
}
