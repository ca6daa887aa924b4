package tensor

import "testing"

func TestConcatRowsAndSliceRows(t *testing.T) {
	a := From([]float32{1, 2, 3, 4}, 2, 2)
	b := From([]float32{5, 6}, 1, 2)
	c := From([]float32{7, 8, 9, 10, 11, 12}, 3, 2)

	cat, err := ConcatRows(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !ShapeEq(cat.Shape(), []int{6, 2}) {
		t.Fatalf("concat shape %v", cat.Shape())
	}
	want := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i, v := range want {
		if cat.Data()[i] != v {
			t.Fatalf("concat data[%d] = %g, want %g", i, cat.Data()[i], v)
		}
	}

	// Splitting back at the original row offsets recovers each part.
	offs := []struct{ lo, hi int }{{0, 2}, {2, 3}, {3, 6}}
	for i, p := range []*Tensor{a, b, c} {
		got, err := cat.SliceRows(offs[i].lo, offs[i].hi)
		if err != nil {
			t.Fatal(err)
		}
		if !SameShape(got, p) {
			t.Fatalf("part %d shape %v vs %v", i, got.Shape(), p.Shape())
		}
		for j, v := range p.Data() {
			if got.Data()[j] != v {
				t.Fatalf("part %d data[%d] = %g, want %g", i, j, got.Data()[j], v)
			}
		}
	}

	// The slice is a copy: mutating it must not touch the batched tensor.
	s, _ := cat.SliceRows(0, 1)
	s.Data()[0] = 99
	if cat.Data()[0] != 1 {
		t.Fatal("SliceRows returned a view, want a copy")
	}
}

func TestConcatRowsErrors(t *testing.T) {
	if _, err := ConcatRows(); err == nil {
		t.Fatal("expected error for empty concat")
	}
	if _, err := ConcatRows(Scalar(1)); err == nil {
		t.Fatal("expected error for scalar concat")
	}
	if _, err := ConcatRows(New(2, 3), New(2, 4)); err == nil {
		t.Fatal("expected error for trailing-shape mismatch")
	}
	if _, err := ConcatRows(New(2, 3), New(2)); err == nil {
		t.Fatal("expected error for rank mismatch")
	}
}

func TestSliceRowsErrors(t *testing.T) {
	if _, err := Scalar(1).SliceRows(0, 1); err == nil {
		t.Fatal("expected error for scalar slice")
	}
	tt := New(3, 2)
	for _, r := range [][2]int{{-1, 1}, {2, 1}, {0, 4}} {
		if _, err := tt.SliceRows(r[0], r[1]); err == nil {
			t.Fatalf("expected error for range %v", r)
		}
	}
}
