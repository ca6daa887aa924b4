package executor

import "fmt"

// OOMError reports that a device memory allocation exceeded capacity — the
// condition the paper's Level 1 micro-batching experiment (§V-C) provokes
// with AlexNet at minibatch 468 and then eliminates via the graph transform.
type OOMError struct {
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("executor: out of device memory: requested %d B with %d/%d B in use",
		e.Requested, e.Used, e.Capacity)
}

// MemoryModel tracks device-memory usage against a capacity, emulating an
// accelerator allocator. Capacity ≤ 0 means unlimited.
type MemoryModel struct {
	Capacity int64
	// AllocOverhead multiplies every allocation, modeling allocator
	// fragmentation and framework bookkeeping (1.0 = none).
	AllocOverhead float64
	used, peak    int64
}

// NewMemoryModel returns a tracker with the given capacity in bytes.
func NewMemoryModel(capacity int64) *MemoryModel {
	return &MemoryModel{Capacity: capacity, AllocOverhead: 1.0}
}

// Alloc records an allocation, failing with *OOMError when it would exceed
// capacity.
func (m *MemoryModel) Alloc(bytes int64) error {
	if m == nil {
		return nil
	}
	eff := int64(float64(bytes) * m.AllocOverhead)
	if m.Capacity > 0 && m.used+eff > m.Capacity {
		return &OOMError{Requested: eff, Used: m.used, Capacity: m.Capacity}
	}
	m.used += eff
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Free records a deallocation.
func (m *MemoryModel) Free(bytes int64) {
	if m == nil {
		return
	}
	m.used -= int64(float64(bytes) * m.AllocOverhead)
	if m.used < 0 {
		m.used = 0
	}
}

// Peak returns the high-water mark.
func (m *MemoryModel) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak
}
