package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64 core with
// a xorshift finalizer). All stochastic components in Deep500-Go draw from
// seeded RNGs so that every experiment is bit-reproducible (paper pillar 5,
// "Reproducibility").
type RNG struct {
	state uint64
	// cached second normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// SplitMixGamma is SplitMix64's state increment, 2^64 over the golden ratio.
const SplitMixGamma = 0x9E3779B97F4A7C15

// SplitMix64 is SplitMix64's output mixer: it maps a state that has just
// been advanced by SplitMixGamma to 64 pseudo-random bits. RNG and the
// span-ID generator of internal/obs/trace both draw through it.
func SplitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += SplitMixGamma
	return SplitMix64(r.state)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform sample in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform sample in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard-normal sample (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RNGState is the complete serializable state of an RNG: the SplitMix64
// counter plus the cached Box-Muller spare. Restoring it reproduces the
// generator's future stream bit-for-bit, which exact-resume checkpointing
// depends on.
type RNGState struct {
	State    uint64
	HasSpare bool
	Spare    float64
}

// CaptureState returns a snapshot of the generator's state.
func (r *RNG) CaptureState() RNGState {
	return RNGState{State: r.state, HasSpare: r.hasSpare, Spare: r.spare}
}

// RestoreState rewinds the generator to a previously captured state.
func (r *RNG) RestoreState(s RNGState) {
	r.state = s.State
	r.hasSpare = s.HasSpare
	r.spare = s.Spare
}

// RandUniform fills a new tensor of the given shape with uniform samples in
// [lo, hi).
func RandUniform(rng *RNG, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + span*rng.Float32()
	}
	return t
}

// RandNormal fills a new tensor with N(mean, std²) samples.
func RandNormal(rng *RNG, mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*float32(rng.Norm())
	}
	return t
}

// XavierInit returns a tensor initialized with Glorot-uniform samples
// (±sqrt(6/(fanIn+fanOut))), the standard initializer for dense layers.
func XavierInit(rng *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	return RandUniform(rng, -limit, limit, shape...)
}

// HeInit returns a tensor initialized with He-normal samples
// (std = sqrt(2/fanIn)), the standard initializer before ReLU layers.
func HeInit(rng *RNG, fanIn int, shape ...int) *Tensor {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	return RandNormal(rng, 0, std, shape...)
}
