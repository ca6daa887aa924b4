package tensor

import "math"

// DiffNorms holds the ℓ1, ℓ2 and ℓ∞ norms of the elementwise difference of
// two tensors, plus the location and value of the maximum error. This is the
// accuracy-metric family the paper attaches to Levels 0 and 1 (§IV-C/D).
type DiffNorms struct {
	L1, L2, LInf float64
	MaxErrorIdx  int
	RelLInf      float64 // ℓ∞ of the difference scaled by max |reference|
}

// Compare computes the difference norms between got and want. want is
// treated as the reference for the relative norm.
func Compare(got, want *Tensor) DiffNorms {
	if len(got.data) != len(want.data) {
		panic("tensor: Compare size mismatch")
	}
	var d DiffNorms
	var refMax float64
	for i := range got.data {
		diff := math.Abs(float64(got.data[i]) - float64(want.data[i]))
		d.L1 += diff
		d.L2 += diff * diff
		if diff > d.LInf {
			d.LInf = diff
			d.MaxErrorIdx = i
		}
		if a := math.Abs(float64(want.data[i])); a > refMax {
			refMax = a
		}
	}
	d.L2 = math.Sqrt(d.L2)
	if refMax > 0 {
		d.RelLInf = d.LInf / refMax
	} else {
		d.RelLInf = d.LInf
	}
	return d
}

// AllClose reports whether every element of got is within atol + rtol*|want|
// of the corresponding want element.
func AllClose(got, want *Tensor, rtol, atol float64) bool {
	if len(got.data) != len(want.data) {
		return false
	}
	for i := range got.data {
		g, w := float64(got.data[i]), float64(want.data[i])
		if math.Abs(g-w) > atol+rtol*math.Abs(w) {
			return false
		}
	}
	return true
}
