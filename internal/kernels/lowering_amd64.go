package kernels

// The convolution lowering's data-movement kernels (lowering_amd64.s). Each
// stands in, bit for bit, for the pure-Go loop its caller runs when useAVX2
// is clear; the caller checks lengths and bounds.

// copyRunsAVX2 writes n depth rows of a packed panel from its runs: row i
// at dst + 16i, run r's lanes (those mask[r] sets) from
// p + base[i] + src[r], +0 in every other lane. runs is 1 to maxRuns, and
// the caller has checked that every read under a mask lies inside its
// image.
//
//go:noescape
func copyRunsAVX2(dst, p *float32, base *int, n, runs int, src *[maxRuns]int, mask *[maxRuns][packNR]int32)

// col2ImRowsAVX2 adds rows spans of n floats, n ≥ 1 and rows ≥ 1:
// dst[i] += src[i] for i < n, then dst advances dstStep floats and src
// srcStep.
//
//go:noescape
func col2ImRowsAVX2(dst, src *float32, n, rows, dstStep, srcStep int)
