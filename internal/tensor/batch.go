package tensor

import "fmt"

// Batch helpers: the serving layer's dynamic micro-batcher coalesces
// single-request tensors into one batched execution along the leading
// (batch) dimension and splits the batched outputs back per request.
// Both directions copy — a split row view into a batched output would keep
// the whole batch alive for as long as any one caller holds its rows.

// ConcatRows stacks tensors along dimension 0. Every part must have rank
// ≥ 1 and identical trailing dimensions; the result's leading dimension is
// the sum of the parts'. Violations return an error (not a panic): the
// serving layer turns them into per-request rejections instead of crashing
// a shared worker.
func ConcatRows(parts ...*Tensor) (*Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: ConcatRows of no tensors")
	}
	first := parts[0]
	if first.Rank() < 1 {
		return nil, fmt.Errorf("tensor: ConcatRows requires rank ≥ 1, got a scalar")
	}
	rows := 0
	for _, p := range parts {
		if p.Rank() != first.Rank() || !ShapeEq(p.shape[1:], first.shape[1:]) {
			return nil, fmt.Errorf("tensor: ConcatRows shape mismatch: %v vs %v", p.shape, first.shape)
		}
		rows += p.shape[0]
	}
	shape := make([]int, first.Rank())
	copy(shape, first.shape)
	shape[0] = rows
	out := New(shape...)
	off := 0
	for _, p := range parts {
		off += copy(out.data[off:], p.data)
	}
	return out, nil
}

// SliceRows returns a copy of rows [start, end) of t along dimension 0.
// It copies so the slice does not alias the batched tensor it came from.
func (t *Tensor) SliceRows(start, end int) (*Tensor, error) {
	if t.Rank() < 1 {
		return nil, fmt.Errorf("tensor: SliceRows requires rank ≥ 1, got a scalar")
	}
	if start < 0 || end < start || end > t.shape[0] {
		return nil, fmt.Errorf("tensor: SliceRows [%d, %d) out of range for %d rows", start, end, t.shape[0])
	}
	rowSize := 1
	for _, d := range t.shape[1:] {
		rowSize *= d
	}
	shape := make([]int, t.Rank())
	copy(shape, t.shape)
	shape[0] = end - start
	out := New(shape...)
	copy(out.data, t.data[start*rowSize:end*rowSize])
	return out, nil
}
