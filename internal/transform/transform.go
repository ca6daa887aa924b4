// Package transform implements Deep500 Level 1 graph transformations
// (paper §IV-D: "researchers can build their own graph transformations to
// optimize between operators"), most importantly the micro-batching
// transformation of §V-C / Fig. 7: convolutions are split along the batch
// dimension into micro-batches, each with its own algorithm, chosen by an
// integer linear program that maximizes performance subject to a memory
// budget.
package transform

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/ilp"
	"deep500/internal/kernels"
)

// MicrobatchChoice is one entry of a micro-batch plan: Count micro-batches
// of Size samples computed with Algo.
type MicrobatchChoice struct {
	Size  int
	Algo  kernels.ConvAlgo
	Count int
}

// ConvCostModel estimates the execution time (seconds) of one micro-batch
// of the given shape with the given algorithm. The default is an analytic
// throughput model; benchmarks may substitute measured values.
type ConvCostModel func(s kernels.ConvShape, algo kernels.ConvAlgo) float64

// DefaultConvCost is a throughput model calibrated to this repository's
// CPU kernels (see BenchmarkAblationConv): parallel im2col+GEMM achieves
// the highest effective FLOP rate; the single-threaded Winograd kernel
// saves multiplications (÷2.25 for 3×3) but runs at a lower rate; direct
// convolution is slowest. A fixed per-invocation overhead penalizes very
// small micro-batches.
func DefaultConvCost(s kernels.ConvShape, algo kernels.ConvAlgo) float64 {
	flops := float64(s.FLOPs())
	const launchOverhead = 50e-6
	switch algo {
	case kernels.ConvIm2Col:
		return launchOverhead + flops/8e9
	case kernels.ConvWinograd:
		if !s.SupportsWinograd() {
			return launchOverhead + flops/8e9
		}
		return launchOverhead + (flops/2.25)/1.2e9
	default: // direct
		return launchOverhead + flops/1.5e9
	}
}

// candidate micro-batch sizes considered by the planner.
var microbatchSizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// PlanMicrobatches solves the ILP: split a batch of size batch into
// micro-batches with per-micro-batch algorithms, minimizing estimated time
// subject to every micro-batch's workspace fitting in memBudget bytes.
// shape describes the convolution at batch size 1 (the N field is ignored).
func PlanMicrobatches(shape kernels.ConvShape, batch int, memBudget int64, cost ConvCostModel) ([]MicrobatchChoice, error) {
	if cost == nil {
		cost = DefaultConvCost
	}
	type cand struct {
		size int
		algo kernels.ConvAlgo
	}
	var cands []cand
	var costs []float64
	algos := []kernels.ConvAlgo{kernels.ConvDirect, kernels.ConvIm2Col}
	if shape.SupportsWinograd() {
		algos = append(algos, kernels.ConvWinograd)
	}
	for _, size := range microbatchSizes {
		if size > batch {
			break
		}
		s := shape
		s.N = size
		for _, algo := range algos {
			if memBudget > 0 && s.WorkspaceBytes(algo) > memBudget {
				continue
			}
			cands = append(cands, cand{size, algo})
			costs = append(costs, cost(s, algo))
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("transform: no micro-batch configuration fits %d bytes", memBudget)
	}
	p := ilp.Problem{
		Cost: costs,
		Lo:   make([]int, len(cands)),
		Hi:   make([]int, len(cands)),
	}
	coef := make([]float64, len(cands))
	for i, c := range cands {
		p.Hi[i] = batch / c.size
		coef[i] = float64(c.size)
	}
	p.Cons = []ilp.Constraint{{Coef: coef, Rel: ilp.EQ, RHS: float64(batch)}}
	x, _, err := ilp.Solve(p)
	if err != nil {
		return nil, fmt.Errorf("transform: micro-batch ILP: %w", err)
	}
	var plan []MicrobatchChoice
	for i, count := range x {
		if count > 0 {
			plan = append(plan, MicrobatchChoice{Size: cands[i].size, Algo: cands[i].algo, Count: count})
		}
	}
	return plan, nil
}

// PlanSizes expands a plan into the Split sizes list.
func PlanSizes(plan []MicrobatchChoice) []int {
	var sizes []int
	for _, c := range plan {
		for i := 0; i < c.Count; i++ {
			sizes = append(sizes, c.Size)
		}
	}
	return sizes
}

func algoName(a kernels.ConvAlgo) string {
	switch a {
	case kernels.ConvDirect:
		return "direct"
	case kernels.ConvWinograd:
		return "winograd"
	default:
		return "im2col"
	}
}

// ApplyMicrobatch rewrites one Conv node into Split → k micro-batch Convs
// (sharing the weight tensors, each with its planned algorithm) → Concat,
// exactly as Fig. 7 depicts. The node's output name is preserved so
// downstream consumers are untouched.
func ApplyMicrobatch(m *graph.Model, node *graph.Node, plan []MicrobatchChoice) error {
	if node.OpType != "Conv" {
		return fmt.Errorf("transform: micro-batching applies to Conv nodes, got %s", node.OpType)
	}
	if len(plan) == 0 {
		return fmt.Errorf("transform: empty plan")
	}
	sizes := PlanSizes(plan)
	if len(sizes) == 1 {
		// single micro-batch: just set the algorithm
		node.Attrs["algo"] = graph.StringAttr("algo", algoName(plan[0].Algo))
		return nil
	}
	input := node.Inputs[0]
	output := node.Outputs[0]

	splitOuts := make([]string, len(sizes))
	sizes64 := make([]int64, len(sizes))
	for i, s := range sizes {
		splitOuts[i] = fmt.Sprintf("%s_mb_in_%d", node.Name, i)
		sizes64[i] = int64(s)
	}
	m.AddNode(graph.NewNode("Split", node.Name+"_mb_split", []string{input}, splitOuts,
		graph.IntAttr("axis", 0), graph.IntsAttr("split", sizes64...)))

	// per-chunk algorithm, aligned with PlanSizes expansion order
	var algos []kernels.ConvAlgo
	for _, c := range plan {
		for i := 0; i < c.Count; i++ {
			algos = append(algos, c.Algo)
		}
	}
	convOuts := make([]string, len(sizes))
	for i := range sizes {
		convOuts[i] = fmt.Sprintf("%s_mb_out_%d", node.Name, i)
		inputs := append([]string{splitOuts[i]}, node.Inputs[1:]...)
		attrs := []graph.Attribute{graph.StringAttr("algo", algoName(algos[i]))}
		for _, a := range node.Attrs {
			if a.Name != "algo" {
				attrs = append(attrs, a)
			}
		}
		m.AddNode(graph.NewNode("Conv", fmt.Sprintf("%s_mb_%d", node.Name, i),
			inputs, []string{convOuts[i]}, attrs...))
	}
	m.AddNode(graph.NewNode("Concat", node.Name+"_mb_concat", convOuts, []string{output},
		graph.IntAttr("axis", 0)))
	m.RemoveNode(node)
	return nil
}

// MicrobatchModel plans and applies micro-batching to every Conv node whose
// im2col workspace at full batch exceeds memBudget. It returns the number
// of transformed nodes.
func MicrobatchModel(m *graph.Model, batch int, memBudget int64, cost ConvCostModel) (int, error) {
	shapes, err := m.InferShapes(batch)
	if err != nil {
		return 0, err
	}
	var convs []*graph.Node
	for _, n := range m.Nodes {
		if n.OpType == "Conv" {
			convs = append(convs, n)
		}
	}
	transformed := 0
	for _, n := range convs {
		x := shapes[n.Inputs[0]]
		w := shapes[n.Inputs[1]]
		strides := n.AttrInts("strides", []int64{1, 1})
		pads := n.AttrInts("pads", []int64{0, 0})
		s := kernels.ConvShape{
			N: 1, C: x[1], H: x[2], W: x[3],
			M: w[0], KH: w[2], KW: w[3],
			StrideH: int(strides[0]), StrideW: int(strides[1]),
			PadH: int(pads[0]), PadW: int(pads[1]),
		}
		full := s
		full.N = batch
		if memBudget > 0 && full.WorkspaceBytes(kernels.ConvIm2Col) <= memBudget {
			continue
		}
		plan, err := PlanMicrobatches(s, batch, memBudget, cost)
		if err != nil {
			return transformed, fmt.Errorf("node %q: %w", n.Name, err)
		}
		if err := ApplyMicrobatch(m, n, plan); err != nil {
			return transformed, err
		}
		transformed++
	}
	return transformed, nil
}

// StripDropout removes Dropout nodes (an inference-time optimization),
// rewiring consumers to the dropout input.
func StripDropout(m *graph.Model) int {
	outputs := make(map[string]bool)
	for _, o := range m.Outputs {
		outputs[o] = true
	}
	removed := 0
	for _, n := range append([]*graph.Node(nil), m.Nodes...) {
		if n.OpType != "Dropout" || outputs[n.Outputs[0]] {
			continue
		}
		src, dst := n.Inputs[0], n.Outputs[0]
		for _, c := range m.Consumers(dst) {
			for i, in := range c.Inputs {
				if in == dst {
					c.Inputs[i] = src
				}
			}
		}
		m.RemoveNode(n)
		removed++
	}
	return removed
}
