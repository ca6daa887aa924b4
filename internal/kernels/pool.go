package kernels

import "math"

// PoolShape describes a 2D pooling problem in NCHW layout.
type PoolShape struct {
	N, C, H, W int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
}

// OutDims returns the output spatial dimensions.
func (s PoolShape) OutDims() (oh, ow int) {
	oh = (s.H+2*s.PadH-s.KH)/s.StrideH + 1
	ow = (s.W+2*s.PadW-s.KW)/s.StrideW + 1
	return
}

// OutputSize returns the element count of the pooled output.
func (s PoolShape) OutputSize() int {
	oh, ow := s.OutDims()
	return s.N * s.C * oh * ow
}

// MaxPool2D computes max pooling. If argmax is non-nil (length OutputSize)
// it receives the flat input index of each selected maximum, which the
// backward pass uses to scatter gradients.
func MaxPool2D(s PoolShape, in, out []float32, argmax []int32) {
	oh, ow := s.OutDims()
	if s.PadH == 0 && s.PadW == 0 {
		maxPool2DUnpadded(s, in, out, argmax, oh, ow)
		return
	}
	maxPool2DGeneral(s, in, out, argmax, oh, ow)
}

// maxPool2DGeneral is MaxPool2D for any shape: window elements that fall in
// the padding are skipped by a bounds test each.
func maxPool2DGeneral(s PoolShape, in, out []float32, argmax []int32, oh, ow int) {
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			inP := (n*s.C + c) * s.H * s.W
			outP := (n*s.C + c) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.StrideH - s.PadH + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.StrideW - s.PadW + kx
							if ix < 0 || ix >= s.W {
								continue
							}
							v := in[inP+iy*s.W+ix]
							if v > best {
								best = v
								bestIdx = int32(inP + iy*s.W + ix)
							}
						}
					}
					out[outP+oy*ow+ox] = best
					if argmax != nil {
						argmax[outP+oy*ow+ox] = bestIdx
					}
				}
			}
		}
	}
}

// maxPool2DUnpadded is MaxPool2D for a shape without padding, where every
// window lies wholly inside the input (every pool in the model zoo): no
// per-element bounds tests, one slice per window row. Elements are visited
// in the same (ky, kx) order under the same strict comparison, so out and
// argmax — including which of several equal maxima wins — are the general
// loop's.
func maxPool2DUnpadded(s PoolShape, in, out []float32, argmax []int32, oh, ow int) {
	if vectorPool(s, ow) && argmax != nil {
		planes := s.N * s.C
		in, out, argmax = in[:planes*s.H*s.W], out[:planes*oh*ow], argmax[:planes*oh*ow]
		maxPool2x2AVX2(&in[0], &out[0], &argmax[0], planes, s.H, s.W, oh, ow)
		return
	}
	for plane := 0; plane < s.N*s.C; plane++ {
		inP := plane * s.H * s.W
		o := plane * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bestIdx := int32(-1)
				at := inP + oy*s.StrideH*s.W + ox*s.StrideW
				for ky := 0; ky < s.KH; ky++ {
					for kx, v := range in[at : at+s.KW] {
						m := positiveMask(math.Float32bits(v - best))
						best = math.Float32frombits(math.Float32bits(v)&m | math.Float32bits(best)&^m)
						bestIdx = int32(at+kx)&int32(m) | bestIdx&^int32(m)
					}
					at += s.W
				}
				out[o] = best
				if argmax != nil {
					argmax[o] = bestIdx
				}
				o++
			}
		}
	}
}

// vectorPool reports whether the AVX2 kernels take pool s, whose output is
// ow wide: 2×2 windows at stride 2 without padding (both LeNet pools), at
// least four outputs wide.
func vectorPool(s PoolShape, ow int) bool {
	return useAVX2 && s.KH == 2 && s.KW == 2 && s.StrideH == 2 && s.StrideW == 2 &&
		s.PadH == 0 && s.PadW == 0 && s.H >= 2 && ow >= 4 && s.N*s.C > 0
}

// MaxPool2DBackward writes the input gradient of MaxPool2D: every element
// of gradIn[:N·C·H·W] is overwritten, with 0 + g at the position the argmax
// of an output with gradient g names (so g = −0 gives +0), summed where
// overlapping windows name one position twice, and +0 everywhere else.
func MaxPool2DBackward(s PoolShape, gradOut []float32, argmax []int32, gradIn []float32) {
	gradIn = gradIn[:s.N*s.C*s.H*s.W]
	if oh, ow := s.OutDims(); vectorPool(s, ow) {
		planes := s.N * s.C
		gradOut, argmax = gradOut[:planes*oh*ow], argmax[:planes*oh*ow]
		maxPool2x2BackwardAVX2(&gradOut[0], &argmax[0], &gradIn[0], planes, s.H, s.W, oh, ow)
		clearUncovered(s, gradIn, oh, ow)
		return
	}
	clear(gradIn)
	for i, g := range gradOut[:s.OutputSize()] {
		if idx := argmax[i]; idx >= 0 {
			gradIn[idx] += g
		}
	}
}

// clearUncovered writes +0 to the elements of an odd-sized plane that no
// 2×2, stride-2 window covers: the last column and the last row.
func clearUncovered(s PoolShape, gradIn []float32, oh, ow int) {
	if s.W == 2*ow && s.H == 2*oh {
		return
	}
	for p := 0; p < s.N*s.C; p++ {
		plane := gradIn[p*s.H*s.W : (p+1)*s.H*s.W]
		for y := 0; y < 2*oh; y++ {
			clear(plane[y*s.W+2*ow : (y+1)*s.W])
		}
		clear(plane[2*oh*s.W:])
	}
}

// AvgPool2D computes average pooling (count excludes padding).
func AvgPool2D(s PoolShape, in, out []float32) {
	oh, ow := s.OutDims()
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			inP := (n*s.C + c) * s.H * s.W
			outP := (n*s.C + c) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					var cnt int
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.StrideH - s.PadH + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.StrideW - s.PadW + kx
							if ix < 0 || ix >= s.W {
								continue
							}
							sum += in[inP+iy*s.W+ix]
							cnt++
						}
					}
					if cnt > 0 {
						out[outP+oy*ow+ox] = sum / float32(cnt)
					}
				}
			}
		}
	}
}

// AvgPool2DBackward distributes gradOut uniformly over each pooling window.
func AvgPool2DBackward(s PoolShape, gradOut, gradIn []float32) {
	oh, ow := s.OutDims()
	for i := range gradIn[:s.N*s.C*s.H*s.W] {
		gradIn[i] = 0
	}
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			inP := (n*s.C + c) * s.H * s.W
			outP := (n*s.C + c) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// count matching forward
					var cnt int
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.StrideH - s.PadH + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.StrideW - s.PadW + kx
							if ix >= 0 && ix < s.W {
								cnt++
							}
						}
					}
					if cnt == 0 {
						continue
					}
					g := gradOut[outP+oy*ow+ox] / float32(cnt)
					for ky := 0; ky < s.KH; ky++ {
						iy := oy*s.StrideH - s.PadH + ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < s.KW; kx++ {
							ix := ox*s.StrideW - s.PadW + kx
							if ix < 0 || ix >= s.W {
								continue
							}
							gradIn[inP+iy*s.W+ix] += g
						}
					}
				}
			}
		}
	}
}

// GlobalAvgPool reduces each N×C×H×W channel plane to its mean, producing
// an N×C output.
func GlobalAvgPool(n, c, h, w int, in, out []float32) {
	plane := h * w
	inv := 1 / float32(plane)
	for i := 0; i < n*c; i++ {
		var s float32
		for _, v := range in[i*plane : (i+1)*plane] {
			s += v
		}
		out[i] = s * inv
	}
}

// GlobalAvgPoolBackward spreads each gradient uniformly over its plane.
func GlobalAvgPoolBackward(n, c, h, w int, gradOut, gradIn []float32) {
	plane := h * w
	inv := 1 / float32(plane)
	for i := 0; i < n*c; i++ {
		g := gradOut[i] * inv
		dst := gradIn[i*plane : (i+1)*plane]
		for j := range dst {
			dst[j] = g
		}
	}
}
