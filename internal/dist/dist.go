// Package dist implements Deep500 Level 3 (paper §IV-F): distributed
// optimizers as thin wrappers over a point-to-point fabric (Rank) and the
// one all-reduce built on it (AllreduceSum), which the internal/mpi
// simulator and the internal/transport TCP fabric both run. The same
// base optimizer can be wrapped in a consistent decentralized scheme
// (allreduce DSGD), neighbor-gossip DPSGD, periodic model averaging, a
// sparsified decentralized scheme with error feedback, or a centralized
// parameter server in synchronous, asynchronous and stale-synchronous
// modes — the paper's Listing 8/9 schemes, runnable on the simulated
// cluster. Gradient quantization utilities support the compression
// tradeoff ablation.
package dist

import (
	"deep500/internal/executor"
	"deep500/internal/tensor"
)

// Params is a packed flat view of a network's parameter set: one
// contiguous vector plus the layout needed to scatter it back. All ranks
// derive the layout from Network.Params(), which is deterministically
// sorted, so packed vectors are wire-compatible across ranks.
type Params struct {
	Names   []string
	Shapes  [][]int
	Offsets []int // Offsets[i] is the start of Names[i] in Vec; len = len(Names)+1
	Vec     []float32

	gradBuf []float32 // reused by PackGrads
}

// PackParams flattens the network's current parameters into a Params.
func PackParams(net *executor.Network) *Params {
	names := net.Params()
	p := &Params{Names: names, Offsets: make([]int, 0, len(names)+1)}
	total := 0
	for _, name := range names {
		t, err := net.FetchTensor(name)
		if err != nil {
			panic(err)
		}
		p.Offsets = append(p.Offsets, total)
		p.Shapes = append(p.Shapes, append([]int(nil), t.Shape()...))
		total += t.Size()
	}
	p.Offsets = append(p.Offsets, total)
	p.Vec = make([]float32, total)
	p.GatherFrom(net)
	return p
}

// Len returns the total element count of the packed vector.
func (p *Params) Len() int { return len(p.Vec) }

// GatherFrom refreshes Vec from the network's current parameter values.
func (p *Params) GatherFrom(net *executor.Network) {
	for i, name := range p.Names {
		t, err := net.FetchTensor(name)
		if err != nil {
			panic(err)
		}
		copy(p.Vec[p.Offsets[i]:p.Offsets[i+1]], t.Data())
	}
}

// ScatterTo writes Vec back into the network parameters, copying in place
// into the live tensors (this runs once per training step in the gossip,
// averaging and parameter-server schemes — no per-step allocation).
func (p *Params) ScatterTo(net *executor.Network) {
	for i, name := range p.Names {
		seg := p.Vec[p.Offsets[i]:p.Offsets[i+1]]
		if t, err := net.FetchTensor(name); err == nil && t.Size() == len(seg) {
			copy(t.Data(), seg)
			continue
		}
		data := make([]float32, len(seg))
		copy(data, seg)
		net.FeedTensor(name, tensor.From(data, p.Shapes[i]...))
	}
}

// PackGrads flattens the network's parameter gradients into a full-length
// vector following p's layout; parameters without a gradient contribute
// zeros, so every rank's vector lines up element-for-element. The returned
// buffer is owned by p and reused across calls (it runs once per training
// step on every parameter-server worker); callers that keep it across
// steps must copy.
func (p *Params) PackGrads(net *executor.Network) []float32 {
	if p.gradBuf == nil {
		p.gradBuf = make([]float32, p.Len())
	}
	vec := p.gradBuf
	for i, name := range p.Names {
		seg := vec[p.Offsets[i]:p.Offsets[i+1]]
		g := net.Gradient(name)
		if g == nil {
			for j := range seg {
				seg[j] = 0
			}
			continue
		}
		copy(seg, g.Data())
	}
	return vec
}
