package kernels

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"deep500/internal/tensor"
)

// lenetPoolShapes are LeNet's two max pools at batch n.
func lenetPoolShapes(n int) []PoolShape {
	return []PoolShape{
		{N: n, C: 6, H: 28, W: 28, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{N: n, C: 16, H: 10, W: 10, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
	}
}

// poolEdgeWidths are the output widths the 2×2 vector pool treats
// differently: below 4 the scalar loop, 4–7 the 4-wide kernel with an
// overlapping tail, 8 and up the 8-wide kernel, with an overlapping tail
// where 8 does not divide the width.
var poolEdgeWidths = []int{1, 3, 4, 5, 8, 14, 17}

// poolEdgeShapes are 2×2, stride-2 pools at every poolEdgeWidths width,
// with even H and W and with odd ones (whose last row and column no window
// covers), then an overlapping and a padded pool, which stay scalar.
func poolEdgeShapes() []PoolShape {
	var shapes []PoolShape
	for _, ow := range poolEdgeWidths {
		shapes = append(shapes,
			PoolShape{N: 2, C: 2, H: 4, W: 2 * ow, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
			PoolShape{N: 2, C: 2, H: 5, W: 2*ow + 1, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	}
	return append(shapes,
		PoolShape{N: 1, C: 2, H: 9, W: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2},
		PoolShape{N: 1, C: 2, H: 8, W: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1})
}

func (s PoolShape) inputSize() int { return s.N * s.C * s.H * s.W }

// BitsHasher feeds float32 and int32 bit patterns into one FNV-64a hash,
// the hash every row of the bit contract (bit_contract_test.go) is kept in.
type BitsHasher struct {
	hash.Hash64
	word [4]byte
}

func NewBitsHasher() *BitsHasher { return &BitsHasher{Hash64: fnv.New64a()} }

func (h *BitsHasher) Floats(v []float32) {
	for _, x := range v {
		binary.LittleEndian.PutUint32(h.word[:], math.Float32bits(x))
		h.Write(h.word[:])
	}
}

func (h *BitsHasher) Ints(v []int32) {
	for _, x := range v {
		binary.LittleEndian.PutUint32(h.word[:], uint32(x))
		h.Write(h.word[:])
	}
}

// poolSweepHashes runs MaxPool2D and MaxPool2DBackward over LeNet's pools
// and poolEdgeShapes, on awkward inputs and on the same inputs behind a
// ReLU, and returns the forward (output and argmax) and backward hashes.
// gradIn starts poisoned: the backward pass must write all of it.
func poolSweepHashes() (fwd, bwd uint64) {
	rng := tensor.NewRNG(31)
	hf, hb := NewBitsHasher(), NewBitsHasher()
	for _, s := range append(lenetPoolShapes(32), poolEdgeShapes()...) {
		for _, relu := range []bool{false, true} {
			in := awkwardMix(rng, s.inputSize())
			if relu {
				ReLU(in, in)
			}
			out, argmax := make([]float32, s.OutputSize()), make([]int32, s.OutputSize())
			MaxPool2D(s, in, out, argmax)
			hf.Floats(out)
			hf.Ints(argmax)
			gradOut := awkwardMix(rng, s.OutputSize())
			gradIn := awkwardMix(rng, s.inputSize())
			MaxPool2DBackward(s, gradOut, argmax, gradIn)
			hb.Floats(gradIn)
		}
	}
	return hf.Sum64(), hb.Sum64()
}

// reluSweepLengths are LeNet's ReLU sizes at batch 32 (conv1, conv2, fc1,
// fc2) and ragged lengths around the vector width.
var reluSweepLengths = []int{32 * 6 * 28 * 28, 32 * 16 * 10 * 10, 32 * 120, 32 * 84,
	0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 65}

func reluSweepHashes() (fwd, bwd uint64) {
	rng := tensor.NewRNG(32)
	hf, hb := NewBitsHasher(), NewBitsHasher()
	for _, n := range reluSweepLengths {
		in := awkwardMix(rng, n)
		out := awkwardMix(rng, n)
		ReLU(in, out)
		hf.Floats(out)
		gradOut := awkwardMix(rng, n)
		gradIn := awkwardMix(rng, n)
		ReLUBackward(in, gradOut, gradIn)
		hb.Floats(gradIn)
	}
	return hf.Sum64(), hb.Sum64()
}

// addBiasSweepHash adds awkward biases to awkward images: LeNet's conv1 and
// conv2 outputs (6×28×28, 16×10×10), ragged plane sizes, and a bias of
// every awkward class.
func addBiasSweepHash() uint64 {
	rng := tensor.NewRNG(33)
	h := NewBitsHasher()
	for _, s := range []struct{ planes, size int }{
		{6, 28 * 28}, {16, 10 * 10}, {3, 1}, {3, 7}, {2, 8}, {4, 9}, {2, 33}, {0, 5},
	} {
		bias := awkwardMix(rng, s.planes)
		out := awkwardMix(rng, s.planes*s.size)
		addBias(bias, out)
		h.Floats(out)
	}
	// Every awkward class as a bias: an add of two NaNs returns the first
	// operand's, so this pins the operand order too.
	for _, size := range []int{8, 17, 100} {
		out := awkwardMix(rng, len(awkward)*size)
		addBias(awkward, out)
		h.Floats(out)
	}
	return h.Sum64()
}

// updateSweepLengths are LeNet's fc1 weight count (400×120) and ragged
// lengths around the vector width, down to the empty slice.
var updateSweepLengths = []int{0, 1, 7, 8, 9, 15, 16, 17, 48000}

// updateClasses name the value classes of the update sweep. updateState
// builds each one's starting param, grad and vel.
var updateClasses = []string{"normal", "stuck subnormal velocity", "subnormal gradient", "±0", "NaN", "±Inf"}

// updateState returns n elements of the named class. Where a class draws
// from a short list of values, param, grad and vel cycle through it at
// different strides, so every combination lands in every vector lane and
// in the scalar tail.
func updateState(class string, rng *tensor.RNG, n int) (param, grad, vel []float32) {
	param, grad, vel = make([]float32, n), make([]float32, n), make([]float32, n)
	combine := func(vals ...float32) {
		k := len(vals)
		for i := range param {
			param[i], grad[i], vel[i] = vals[i%k], vals[i/k%k], vals[i/(k*k)%k]
		}
	}
	negZero := float32(math.Copysign(0, -1))
	switch class {
	case "normal":
		param, grad, vel = randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
	case "stuck subnormal velocity":
		// A zero gradient decays vel ← 0.9·vel into the subnormals, where
		// 0.9·k ulp rounds back to k ulp for k ≤ 4: some lanes start there,
		// some hundreds of ulp up, some at small normals.
		param = randSlice(rng, n)
		for i := range vel {
			v := math.Float32frombits(uint32(1 + i%300))
			if i%7 == 0 {
				v = float32(i%5+1) * 1e-37
			}
			if i%2 == 1 {
				v, grad[i] = -v, negZero
			}
			vel[i] = v
		}
	case "subnormal gradient":
		param, vel = randSlice(rng, n), randSlice(rng, n)
		for i := range grad {
			b := uint32(1 + rng.Uint64()%0x7fffff)
			if i%2 == 1 {
				b |= 0x80000000
			}
			grad[i] = math.Float32frombits(b)
		}
	case "±0":
		combine(0, negZero)
	case "NaN":
		combine(1.5, math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800123),
			math.Float32frombits(0xffc00456), -2.5)
	case "±Inf":
		combine(float32(math.Inf(1)), float32(math.Inf(-1)), 0.75, -0.25, 0)
	default:
		panic("unknown update class " + class)
	}
	return param, grad, vel
}

// updateSweepHashes runs 50 MomentumFused steps (train_lenet's lr 0.02,
// μ 0.9) and 50 SGDFused steps (train_tcp_mlp's lr 0.05) from each class
// at each length, holding the gradient, and returns the hash of the
// momentum param and vel and the hash of the SGD param.
func updateSweepHashes(t *testing.T) (momentum, sgd uint64) {
	rng := tensor.NewRNG(34)
	hm, hs := NewBitsHasher(), NewBitsHasher()
	for _, class := range updateClasses {
		for _, n := range updateSweepLengths {
			param, grad, vel := updateState(class, rng, n)
			sgdParam := append([]float32(nil), param...)
			for step := 0; step < 50; step++ {
				MomentumFused(param, grad, vel, 0.02, 0.9)
				SGDFused(sgdParam, grad, 0.05)
			}
			if class == "stuck subnormal velocity" {
				for i, v := range vel {
					if a := math.Float32bits(v) &^ 0x80000000; i%7 != 0 && (a == 0 || a > 4) {
						t.Fatalf("n=%d: vel[%d] = %g after 50 steps, want a 1–4 ulp subnormal", n, i, v)
					}
				}
			}
			hm.Floats(param)
			hm.Floats(vel)
			hs.Floats(sgdParam)
		}
	}
	return hm.Sum64(), hs.Sum64()
}

// poolWindow is one 2×2 window, its values in (ky, kx) order, and which of
// them the pool must pick: −1 for none, when the output is −Inf and the
// argmax −1.
type poolWindow struct {
	name string
	v    [4]float32
	want int
}

func poolWindowCases() []poolWindow {
	nan := math.Float32frombits(0x7fc00000)
	negNaN := math.Float32frombits(0xffc00000)
	sNaN := math.Float32frombits(0x7f800001)
	inf, negInf := float32(math.Inf(1)), float32(math.Inf(-1))
	negZero := float32(math.Copysign(0, -1))
	tiny := math.Float32frombits(1) // smallest denormal
	return []poolWindow{
		{"NaN at (0,0)", [4]float32{nan, 1, 3, 2}, 2},
		{"NaN at (0,1)", [4]float32{3, negNaN, 2, 1}, 0},
		{"NaN at (1,0)", [4]float32{1, 2, sNaN, 0}, 1},
		{"NaN at (1,1)", [4]float32{1, 2, 3, nan}, 2},
		{"only -Inf", [4]float32{negInf, negInf, negInf, negInf}, -1},
		{"only NaN", [4]float32{nan, negNaN, sNaN, nan}, -1},
		{"NaN and -Inf", [4]float32{negInf, nan, negInf, sNaN}, -1},
		{"-0 before +0", [4]float32{negZero, 0, -1, negZero}, 0},
		{"+0 before -0", [4]float32{0, negZero, negZero, -1}, 0},
		{"-0 after negatives", [4]float32{-2, -1, negZero, 0}, 2},
		{"equal maxima", [4]float32{1, 5, 5, 5}, 1},
		{"equal maxima in the second row", [4]float32{1, 2, 7, 7}, 2},
		{"denormals", [4]float32{-tiny, tiny, 0, 2 * tiny}, 3},
		{"+Inf first of two", [4]float32{1, inf, inf, nan}, 1},
		{"-Inf then a denormal", [4]float32{negInf, -tiny, negInf, -math.MaxFloat32}, 1},
	}
}

// refMaxPoolBackward is the scatter MaxPool2DBackward's vector kernel
// replaces: clear, then add each gradient at its argmax.
func refMaxPoolBackward(gradOut []float32, argmax []int32, gradIn []float32) {
	clear(gradIn)
	for i, g := range gradOut {
		if idx := argmax[i]; idx >= 0 {
			gradIn[idx] += g
		}
	}
}

// TestMaxPoolVectorEdgeCases runs every poolWindowCases window through the
// pool at every poolEdgeWidths width, in every vector lane (the 15 cases
// cycle across the 8 lanes), with even and odd H and W; the uncovered last
// row and column hold +Inf, which no window may see. The backward pass gets
// gradients including −0 (which must come back +0) and NaN, into a gradIn
// poisoned with NaN whose uncovered elements must come back +0.
func TestMaxPoolVectorEdgeCases(t *testing.T) {
	cases := poolWindowCases()
	negZero := float32(math.Copysign(0, -1))
	grads := []float32{negZero, 1.5, math.Float32frombits(0x7fc00001), -2, math.Float32frombits(3), 0, float32(math.Inf(-1))}
	onEachMicroKernel(t, func(t *testing.T) {
		for _, ow := range poolEdgeWidths {
			for _, odd := range []int{0, 1} {
				s := PoolShape{N: 1, C: 2, H: 6 + odd, W: 2*ow + odd, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
				oh := 3
				in := make([]float32, s.inputSize())
				for i := range in {
					in[i] = float32(math.Inf(1))
				}
				at := func(win, k int) int { // flat input index of candidate k of window win
					p, oy, ox := win/(oh*ow), win/ow%oh, win%ow
					return p*s.H*s.W + (2*oy+k/2)*s.W + 2*ox + k%2
				}
				windows := s.OutputSize()
				for win := 0; win < windows; win++ {
					for k, v := range cases[win%len(cases)].v {
						in[at(win, k)] = v
					}
				}
				out, argmax := make([]float32, windows), make([]int32, windows)
				for i := range argmax {
					out[i], argmax[i] = 42, 42
				}
				MaxPool2D(s, in, out, argmax)
				for win := 0; win < windows; win++ {
					c := cases[win%len(cases)]
					wantOut, wantArg := float32(math.Inf(-1)), int32(-1)
					if c.want >= 0 {
						wantOut, wantArg = c.v[c.want], int32(at(win, c.want))
					}
					if math.Float32bits(out[win]) != math.Float32bits(wantOut) || argmax[win] != wantArg {
						t.Fatalf("%+v window %d (%s): out %g (%#x) argmax %d, want %g (%#x) argmax %d", s, win, c.name,
							out[win], math.Float32bits(out[win]), argmax[win], wantOut, math.Float32bits(wantOut), wantArg)
					}
				}

				gradOut := make([]float32, windows)
				for i := range gradOut {
					gradOut[i] = grads[i%len(grads)]
				}
				gradIn, want := make([]float32, len(in)), make([]float32, len(in))
				for i := range gradIn {
					gradIn[i] = float32(math.NaN())
				}
				MaxPool2DBackward(s, gradOut, argmax, gradIn)
				refMaxPoolBackward(gradOut, argmax, want)
				requireSameBits(t, fmt.Sprintf("%+v MaxPool2DBackward", s), gradIn, want)
				for win, g := range gradOut {
					if idx := argmax[win]; g == 0 && idx >= 0 && math.Float32bits(gradIn[idx]) != 0 {
						t.Fatalf("%+v window %d: gradient %g came back %g, want +0", s, win, g, gradIn[idx])
					}
				}
				for p := 0; p < s.N*s.C; p++ {
					for y := 0; y < s.H; y++ {
						for x := 0; x < s.W; x++ {
							if i := p*s.H*s.W + y*s.W + x; (y >= 2*oh || x >= 2*ow) && math.Float32bits(gradIn[i]) != 0 {
								t.Fatalf("%+v: uncovered gradIn[%d] = %g, want +0", s, i, gradIn[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestReLUVectorEdgeCases runs every awkward class through ReLU and
// ReLUBackward in every vector lane and at every length up to five vectors,
// so each lands in the vector body and in the scalar tail, against the
// branching forms: −0, negatives and NaNs give +0, positive denormals and
// +Inf pass, and a −0 gradient behind a positive input stays −0.
func TestReLUVectorEdgeCases(t *testing.T) {
	onEachMicroKernel(t, func(t *testing.T) {
		for n := 0; n <= 40; n++ {
			for shift := range awkward {
				in, grad := make([]float32, n), make([]float32, n)
				for i := range in {
					in[i] = awkward[(i+shift)%len(awkward)]
					grad[i] = awkward[(3*i+shift)%len(awkward)]
				}
				got, want := make([]float32, n), make([]float32, n)
				ReLU(in, got)
				refReLU(in, want)
				requireSameBits(t, fmt.Sprintf("ReLU n=%d shift=%d", n, shift), got, want)
				ReLUBackward(in, grad, got)
				refReLUBackward(in, grad, want)
				requireSameBits(t, fmt.Sprintf("ReLUBackward n=%d shift=%d", n, shift), got, want)
				copy(got, in)
				ReLU(got, got)
				refReLU(in, want)
				requireSameBits(t, fmt.Sprintf("ReLU in place n=%d shift=%d", n, shift), got, want)
			}
		}
	})
}

// TestAsmIsVEXEncoded fails on any instruction in the package's assembly
// that names a vector register — an X or Y register, or a macro parameter
// standing for one — under a mnemonic that does not start with V. No
// output can show the mistake: a legacy-SSE instruction among AVX ones
// keeps every bit, and costs a state transition each time it runs (one
// MOVQ into an XMM register made the vector pool 17× slower).
func TestAsmIsVEXEncoded(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found: %v", err)
	}
	vecReg := regexp.MustCompile(`^[XY]\d+$`)
	define := regexp.MustCompile(`^#define\s+\w+\(([^)]*)\)`)
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]bool{} // parameters of the macro being defined
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			code = strings.TrimSpace(code)
			cont := strings.HasSuffix(code, `\`)
			code = strings.TrimSpace(strings.TrimSuffix(code, `\`))
			if m := define.FindStringSubmatch(code); m != nil {
				params = map[string]bool{}
				for _, p := range strings.Split(m[1], ",") {
					params[strings.TrimSpace(p)] = true
				}
				continue
			}
			fields := strings.FieldsFunc(code, func(r rune) bool { return strings.ContainsRune(" \t,()", r) })
			if len(fields) > 0 && !strings.HasPrefix(code, "#") && !strings.HasSuffix(code, ":") &&
				!strings.HasPrefix(fields[0], "V") && !strings.Contains(code, fields[0]+"(") {
				for _, operand := range fields[1:] {
					if vecReg.MatchString(operand) || params[operand] {
						t.Errorf("%s:%d: %s is not VEX-encoded", name, i+1, fields[0])
						break
					}
				}
			}
			if !cont {
				params = map[string]bool{}
			}
		}
	}
}
