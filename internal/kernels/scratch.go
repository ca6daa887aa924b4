package kernels

import "deep500/internal/tensor"

// scratch pools the package's kernel workspaces — GEMM pack panels, im2col
// column buffers, Winograd transform tables — so steady-state kernel calls
// allocate nothing. The pool is the package's own, so it serves bare kernel
// calls that have no executor at all. tensor.Arena is concurrency-safe, so
// parallel workers draw their private buffers from the same pool.
var scratch = tensor.NewArena()
