package kernels

import "testing"

// For the external test package: UseAVX2 points at the switch between the
// assembly kernels and the pure-Go loops, HostHasAVX2 is its value at
// start-up, and OnEachMicroKernel runs a subtest on each path.
var (
	UseAVX2, HostHasAVX2 = &useAVX2, useAVX2
	OnEachMicroKernel    = onEachMicroKernel
)

// KernelSweeps are the sweeps behind the bit contract's kernel rows
// (bit_contract_test.go). Each hashes every output bit of its classes, in
// order.
var KernelSweeps = []struct {
	Classes []string
	Sweep   func(t *testing.T) []uint64
}{
	{[]string{"kernel/gemmPacked"}, func(*testing.T) []uint64 { return []uint64{gemmPackedSweepHash()} }},
	{[]string{"kernel/conv"}, func(*testing.T) []uint64 { return []uint64{convSweepHash()} }},
	{[]string{"kernel/convLowering"}, func(*testing.T) []uint64 { return []uint64{convLoweringSweepHash()} }},
	{[]string{"kernel/maxPool", "kernel/maxPoolBackward"}, func(*testing.T) []uint64 {
		fwd, bwd := poolSweepHashes()
		return []uint64{fwd, bwd}
	}},
	{[]string{"kernel/relu", "kernel/reluBackward"}, func(*testing.T) []uint64 {
		fwd, bwd := reluSweepHashes()
		return []uint64{fwd, bwd}
	}},
	{[]string{"kernel/addBias"}, func(*testing.T) []uint64 { return []uint64{addBiasSweepHash()} }},
	{[]string{"kernel/momentum", "kernel/sgd"}, func(t *testing.T) []uint64 {
		momentum, sgd := updateSweepHashes(t)
		return []uint64{momentum, sgd}
	}},
}
