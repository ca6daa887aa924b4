package kernels

import (
	"fmt"
	"testing"
)

// For the external test package: OnEachMicroKernel runs a subtest on each
// kernel path this host has, and OnEachKernelPath runs f with each selected,
// handing it the path's name.
var OnEachMicroKernel = onEachMicroKernel

func OnEachKernelPath(f func(name string)) { onEachPath(func(p kernelPath) { f(p.name) }) }

// KernelSweeps are the sweeps behind the bit contract's kernel rows
// (bit_contract_test.go). Each reports one or more cells to cell, naming
// each by a suffix, and every cell hashes every output bit of its classes,
// in order.
var KernelSweeps = []struct {
	Classes []string
	Sweep   func(t *testing.T, cell func(suffix string, hashes ...uint64))
}{
	{[]string{"kernel/gemmPacked"}, func(_ *testing.T, cell func(string, ...uint64)) {
		// Whole, then the untransposed-A shapes a batch at a time: one row
		// above the small-M kernel's limit, the training batch, and one
		// macro block, the largest batch whose B is read in place.
		cell(" whole", gemmPackedSweepHash(0))
		for _, rows := range []int{smallMRows + 1, 32, packMC} {
			cell(fmt.Sprintf(" %d rows at a time", rows), gemmPackedSweepHash(rows))
		}
	}},
	{[]string{"kernel/conv"}, func(_ *testing.T, cell func(string, ...uint64)) { cell("", convSweepHash()) }},
	{[]string{"kernel/convLowering"}, func(_ *testing.T, cell func(string, ...uint64)) { cell("", convLoweringSweepHash()) }},
	{[]string{"kernel/maxPool", "kernel/maxPoolBackward"}, func(_ *testing.T, cell func(string, ...uint64)) {
		fwd, bwd := poolSweepHashes()
		cell("", fwd, bwd)
	}},
	{[]string{"kernel/relu", "kernel/reluBackward"}, func(_ *testing.T, cell func(string, ...uint64)) {
		fwd, bwd := reluSweepHashes()
		cell("", fwd, bwd)
	}},
	{[]string{"kernel/addBias"}, func(_ *testing.T, cell func(string, ...uint64)) { cell("", addBiasSweepHash()) }},
	{[]string{"kernel/momentum", "kernel/sgd"}, func(t *testing.T, cell func(string, ...uint64)) {
		momentum, sgd := updateSweepHashes(t)
		cell("", momentum, sgd)
	}},
	{[]string{"kernel/ringReduce"}, func(_ *testing.T, cell func(string, ...uint64)) { cell("", ringReduceSweepHash()) }},
}
