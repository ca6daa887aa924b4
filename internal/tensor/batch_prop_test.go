package tensor

import (
	"fmt"
	"testing"
)

// Property tests for the batching round trip. The serving micro-batcher
// depends on exactly these identities — ConcatRows then SliceRows at the
// recorded row offsets must recover every request bit-for-bit, for any
// ragged mix of row counts the admission queue happens to coalesce — so
// they are checked over randomized shapes rather than a few hand-picked
// cases. Every trial is seeded and the failing trial's shape is printed,
// so a red run reproduces deterministically.

// raggedParts draws a random batch: a shared trailing shape of random
// rank 1..3 with dimensions from a spread that covers 1, powers of two,
// and off-by-one neighbors, split into 1..6 parts with ragged leading
// row counts (including single-row parts, the serving common case).
func raggedParts(rng *RNG) []*Tensor {
	dims := []int{1, 2, 3, 5, 8, 17, 31}
	rank := 1 + rng.Intn(3)
	trailing := make([]int, rank-1)
	for i := range trailing {
		trailing[i] = dims[rng.Intn(len(dims))]
	}
	parts := make([]*Tensor, 1+rng.Intn(6))
	for i := range parts {
		shape := append([]int{1 + rng.Intn(7)}, trailing...)
		parts[i] = RandNormal(rng, 0, 1, shape...)
	}
	return parts
}

// TestConcatSliceRoundTripProperty: for random ragged parts,
// SliceRows(ConcatRows(parts), offsets) == parts, element for element,
// and the concatenation's leading dimension is the sum of the parts'.
func TestConcatSliceRoundTripProperty(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := NewRNG(uint64(9000 + trial))
		parts := raggedParts(rng)
		label := func() string {
			shapes := make([]string, len(parts))
			for i, p := range parts {
				shapes[i] = fmt.Sprint(p.Shape())
			}
			return fmt.Sprintf("trial %d, parts %v", trial, shapes)
		}

		cat, err := ConcatRows(parts...)
		if err != nil {
			t.Fatalf("%s: %v", label(), err)
		}
		totalRows := 0
		for _, p := range parts {
			totalRows += p.Shape()[0]
		}
		if got := cat.Shape()[0]; got != totalRows {
			t.Fatalf("%s: concat has %d rows, parts sum to %d", label(), got, totalRows)
		}
		if cat.Rank() != parts[0].Rank() {
			t.Fatalf("%s: concat rank %d vs part rank %d", label(), cat.Rank(), parts[0].Rank())
		}

		off := 0
		for i, p := range parts {
			rows := p.Shape()[0]
			got, err := cat.SliceRows(off, off+rows)
			if err != nil {
				t.Fatalf("%s: slicing part %d: %v", label(), i, err)
			}
			if !SameShape(got, p) {
				t.Fatalf("%s: part %d shape %v, want %v", label(), i, got.Shape(), p.Shape())
			}
			for j, v := range p.Data() {
				if got.Data()[j] != v {
					t.Fatalf("%s: part %d elem %d = %g, want %g", label(), i, j, got.Data()[j], v)
				}
			}
			off += rows
		}
	}
}

// TestSliceConcatInverseProperty is the opposite direction: cutting a
// random tensor at random ragged offsets and concatenating the pieces
// reproduces the original exactly — including empty [k, k) cuts, which
// contribute zero rows and must not disturb the reassembly.
func TestSliceConcatInverseProperty(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := NewRNG(uint64(31000 + trial))
		rank := 1 + rng.Intn(3)
		shape := make([]int, rank)
		shape[0] = 1 + rng.Intn(12)
		for i := 1; i < rank; i++ {
			shape[i] = 1 + rng.Intn(9)
		}
		orig := RandNormal(rng, 0, 1, shape...)

		// Random cut points (sorted, possibly repeated → empty slices).
		cuts := []int{0}
		for k := 0; k < rng.Intn(4); k++ {
			cuts = append(cuts, rng.Intn(shape[0]+1))
		}
		cuts = append(cuts, shape[0])
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}

		pieces := make([]*Tensor, 0, len(cuts)-1)
		for i := 1; i < len(cuts); i++ {
			s, err := orig.SliceRows(cuts[i-1], cuts[i])
			if err != nil {
				t.Fatalf("trial %d shape %v cuts %v: %v", trial, shape, cuts, err)
			}
			if got := s.Shape()[0]; got != cuts[i]-cuts[i-1] {
				t.Fatalf("trial %d shape %v: cut [%d,%d) has %d rows", trial, shape, cuts[i-1], cuts[i], got)
			}
			pieces = append(pieces, s)
		}

		back, err := ConcatRows(pieces...)
		if err != nil {
			t.Fatalf("trial %d shape %v cuts %v: %v", trial, shape, cuts, err)
		}
		if !SameShape(back, orig) {
			t.Fatalf("trial %d: reassembled shape %v, want %v (cuts %v)", trial, back.Shape(), shape, cuts)
		}
		for j, v := range orig.Data() {
			if back.Data()[j] != v {
				t.Fatalf("trial %d shape %v cuts %v: elem %d = %g, want %g",
					trial, shape, cuts, j, back.Data()[j], v)
			}
		}

		// The pieces are copies: mutating every piece must leave the
		// original untouched (the batcher hands one piece to each caller,
		// and no caller may see another's writes).
		for _, p := range pieces {
			for j := range p.Data() {
				p.Data()[j] = -1e30
			}
		}
		for j := range orig.Data() {
			if orig.Data()[j] == -1e30 {
				t.Fatalf("trial %d: mutating a slice reached the original at elem %d", trial, j)
			}
		}
	}
}
