package ops

import (
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// Conformance golden tests: hand-computed input/output vectors per
// operator, the analogue of the ONNX correctness tests the paper embraces
// (§IV-B "we embrace the ONNX correctness tests"). Each case is built from
// a graph node through the public factory, so attribute plumbing is
// covered too.

type goldenCase struct {
	name    string
	node    *graph.Node
	inputs  []*tensor.Tensor
	outputs []*tensor.Tensor
	tol     float64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "Relu",
			node: graph.NewNode("Relu", "n", []string{"x"}, []string{"y"}),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{-1, 0, 2.5}, 3),
			},
			outputs: []*tensor.Tensor{
				tensor.From([]float32{0, 0, 2.5}, 3),
			},
		},
		{
			name: "LeakyRelu alpha=0.1",
			node: graph.NewNode("LeakyRelu", "n", []string{"x"}, []string{"y"},
				graph.FloatAttr("alpha", 0.1)),
			inputs:  []*tensor.Tensor{tensor.From([]float32{-10, 5}, 2)},
			outputs: []*tensor.Tensor{tensor.From([]float32{-1, 5}, 2)},
		},
		{
			name:    "Sigmoid",
			node:    graph.NewNode("Sigmoid", "n", []string{"x"}, []string{"y"}),
			inputs:  []*tensor.Tensor{tensor.From([]float32{0, float32(math.Log(3))}, 2)},
			outputs: []*tensor.Tensor{tensor.From([]float32{0.5, 0.75}, 2)},
			tol:     1e-6,
		},
		{
			name: "Gemm with bias",
			node: graph.NewNode("Gemm", "n", []string{"a", "b", "c"}, []string{"y"}),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{1, 2, 3, 4}, 2, 2),
				tensor.From([]float32{1, 0, 0, 1}, 2, 2),
				tensor.From([]float32{10, 20}, 2),
			},
			outputs: []*tensor.Tensor{tensor.From([]float32{11, 22, 13, 24}, 2, 2)},
		},
		{
			name: "Gemm transB",
			node: graph.NewNode("Gemm", "n", []string{"a", "b"}, []string{"y"},
				graph.IntAttr("transB", 1)),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{1, 2}, 1, 2),
				tensor.From([]float32{3, 4, 5, 6}, 2, 2), // Bᵀ rows are outputs
			},
			outputs: []*tensor.Tensor{tensor.From([]float32{11, 17}, 1, 2)},
		},
		{
			name: "Conv 1x1 identity kernel",
			node: graph.NewNode("Conv", "n", []string{"x", "w"}, []string{"y"},
				graph.IntsAttr("strides", 1, 1), graph.IntsAttr("pads", 0, 0),
				graph.IntsAttr("kernel_shape", 1, 1)),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{1, 2, 3, 4}, 1, 1, 2, 2),
				tensor.From([]float32{2}, 1, 1, 1, 1),
			},
			outputs: []*tensor.Tensor{tensor.From([]float32{2, 4, 6, 8}, 1, 1, 2, 2)},
		},
		{
			name: "Conv 3x3 sum kernel padded",
			node: graph.NewNode("Conv", "n", []string{"x", "w"}, []string{"y"},
				graph.IntsAttr("strides", 1, 1), graph.IntsAttr("pads", 1, 1),
				graph.IntsAttr("kernel_shape", 3, 3)),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{
					1, 1, 1,
					1, 1, 1,
					1, 1, 1}, 1, 1, 3, 3),
				tensor.Full(1, 1, 1, 3, 3),
			},
			// each output = count of in-bounds neighbors (sum of 1s)
			outputs: []*tensor.Tensor{tensor.From([]float32{
				4, 6, 4,
				6, 9, 6,
				4, 6, 4}, 1, 1, 3, 3)},
		},
		{
			name: "MaxPool 2x2",
			node: graph.NewNode("MaxPool", "n", []string{"x"}, []string{"y"},
				graph.IntsAttr("kernel_shape", 2, 2), graph.IntsAttr("strides", 2, 2)),
			inputs: []*tensor.Tensor{tensor.From([]float32{
				1, 2, 3, 4,
				5, 6, 7, 8,
				9, 10, 11, 12,
				13, 14, 15, 16}, 1, 1, 4, 4)},
			outputs: []*tensor.Tensor{tensor.From([]float32{6, 8, 14, 16}, 1, 1, 2, 2)},
		},
		{
			name: "AveragePool 2x2",
			node: graph.NewNode("AveragePool", "n", []string{"x"}, []string{"y"},
				graph.IntsAttr("kernel_shape", 2, 2), graph.IntsAttr("strides", 2, 2)),
			inputs: []*tensor.Tensor{tensor.From([]float32{
				1, 2,
				3, 4}, 1, 1, 2, 2)},
			outputs: []*tensor.Tensor{tensor.From([]float32{2.5}, 1, 1, 1, 1)},
		},
		{
			name:    "GlobalAveragePool",
			node:    graph.NewNode("GlobalAveragePool", "n", []string{"x"}, []string{"y"}),
			inputs:  []*tensor.Tensor{tensor.From([]float32{0, 2, 4, 6}, 1, 1, 2, 2)},
			outputs: []*tensor.Tensor{tensor.From([]float32{3}, 1, 1, 1, 1)},
		},
		{
			name:   "Softmax uniform",
			node:   graph.NewNode("Softmax", "n", []string{"x"}, []string{"y"}),
			inputs: []*tensor.Tensor{tensor.From([]float32{7, 7, 7, 7}, 1, 4)},
			outputs: []*tensor.Tensor{
				tensor.From([]float32{0.25, 0.25, 0.25, 0.25}, 1, 4)},
			tol: 1e-6,
		},
		{
			name: "SoftmaxCrossEntropy perfect",
			node: graph.NewNode("SoftmaxCrossEntropy", "n", []string{"x", "l"}, []string{"loss", "probs"}),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{100, 0, 0, 100}, 2, 2),
				tensor.From([]float32{0, 1}, 2),
			},
			outputs: []*tensor.Tensor{
				tensor.Scalar(0),
				tensor.From([]float32{1, 0, 0, 1}, 2, 2),
			},
			tol: 1e-5,
		},
		{
			name: "Flatten axis=1",
			node: graph.NewNode("Flatten", "n", []string{"x"}, []string{"y"},
				graph.IntAttr("axis", 1)),
			inputs:  []*tensor.Tensor{tensor.From([]float32{1, 2, 3, 4, 5, 6}, 1, 2, 3)},
			outputs: []*tensor.Tensor{tensor.From([]float32{1, 2, 3, 4, 5, 6}, 1, 6)},
		},
		{
			name: "Split axis=0",
			node: graph.NewNode("Split", "n", []string{"x"}, []string{"a", "b"},
				graph.IntAttr("axis", 0), graph.IntsAttr("split", 1, 2)),
			inputs: []*tensor.Tensor{tensor.From([]float32{1, 2, 3, 4, 5, 6}, 3, 2)},
			outputs: []*tensor.Tensor{
				tensor.From([]float32{1, 2}, 1, 2),
				tensor.From([]float32{3, 4, 5, 6}, 2, 2),
			},
		},
		{
			name: "Concat axis=0",
			node: graph.NewNode("Concat", "n", []string{"a", "b"}, []string{"y"},
				graph.IntAttr("axis", 0)),
			inputs: []*tensor.Tensor{
				tensor.From([]float32{1, 2}, 1, 2),
				tensor.From([]float32{3, 4}, 1, 2),
			},
			outputs: []*tensor.Tensor{tensor.From([]float32{1, 2, 3, 4}, 2, 2)},
		},
		{
			name: "Elu",
			node: graph.NewNode("Elu", "n", []string{"x"}, []string{"y"},
				graph.FloatAttr("alpha", 1.0)),
			inputs: []*tensor.Tensor{tensor.From([]float32{1, 0, -1000}, 3)},
			outputs: []*tensor.Tensor{
				tensor.From([]float32{1, 0, -1}, 3)},
			tol: 1e-5,
		},
		{
			name: "Clip",
			node: graph.NewNode("Clip", "n", []string{"x"}, []string{"y"},
				graph.FloatAttr("min", -1), graph.FloatAttr("max", 1)),
			inputs:  []*tensor.Tensor{tensor.From([]float32{-5, 0.5, 5}, 3)},
			outputs: []*tensor.Tensor{tensor.From([]float32{-1, 0.5, 1}, 3)},
		},
		{
			name:    "Accuracy half",
			node:    graph.NewNode("Accuracy", "n", []string{"x", "l"}, []string{"y"}),
			inputs:  []*tensor.Tensor{tensor.From([]float32{1, 0, 1, 0}, 2, 2), tensor.From([]float32{0, 1}, 2)},
			outputs: []*tensor.Tensor{tensor.Scalar(0.5)},
		},
		{
			name:    "MeanSquaredError",
			node:    graph.NewNode("MeanSquaredError", "n", []string{"p", "t"}, []string{"y"}),
			inputs:  []*tensor.Tensor{tensor.From([]float32{1, 3}, 2), tensor.From([]float32{0, 1}, 2)},
			outputs: []*tensor.Tensor{tensor.Scalar(2.5)},
		},
	}
}

func TestOperatorConformance(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			op, err := FromNode(tc.node)
			if err != nil {
				t.Fatal(err)
			}
			got := op.Forward(tc.inputs)
			if len(got) < len(tc.outputs) {
				t.Fatalf("got %d outputs, want %d", len(got), len(tc.outputs))
			}
			tol := tc.tol
			for i, want := range tc.outputs {
				if !tensor.ShapeEq(got[i].Shape(), want.Shape()) {
					t.Fatalf("output %d shape %v want %v", i, got[i].Shape(), want.Shape())
				}
				if !tensor.AllClose(got[i], want, 0, tol) {
					d := tensor.Compare(got[i], want)
					t.Fatalf("output %d: linf=%g (got %v want %v)", i, d.LInf, got[i], want)
				}
			}
		})
	}
}

// TestConformanceAcrossConvAlgorithms runs the conv goldens with every
// convolution algorithm.
func TestConformanceAcrossConvAlgorithms(t *testing.T) {
	for _, algo := range []string{"direct", "im2col", "winograd"} {
		for _, tc := range goldenCases() {
			if tc.node.OpType != "Conv" {
				continue
			}
			node := graph.NewNode("Conv", "n", tc.node.Inputs, tc.node.Outputs)
			for _, a := range tc.node.Attrs {
				node.Attrs[a.Name] = a
			}
			node.Attrs["algo"] = graph.StringAttr("algo", algo)
			op, err := FromNode(node)
			if err != nil {
				t.Fatal(err)
			}
			got := op.Forward(tc.inputs)
			if !tensor.AllClose(got[0], tc.outputs[0], 1e-5, 1e-4) {
				t.Fatalf("%s/%s: mismatch", tc.name, algo)
			}
		}
	}
}

// TestGemmOpsMatchNaiveReference checks the operators built on the product
// GEMM — MatMul, Gemm with a transposed B, and the RNN cell — against the
// same arithmetic spelled out with the naive triple loop, on shapes either
// side of the kernel's small-M rule.
func TestGemmOpsMatchNaiveReference(t *testing.T) {
	rng := tensor.NewRNG(44)
	naive := func(a, b *tensor.Tensor) *tensor.Tensor {
		c := tensor.New(a.Dim(0), b.Dim(1))
		kernels.GemmNaive(a.Data(), b.Data(), c.Data(), a.Dim(0), a.Dim(1), b.Dim(1))
		return c
	}
	for _, rows := range []int{5, 19} {
		a := tensor.RandNormal(rng, 0, 1, rows, 7)
		b := tensor.RandNormal(rng, 0, 1, 7, 3)
		if got := NewMatMul().Forward([]*tensor.Tensor{a, b})[0]; !tensor.AllClose(got, naive(a, b), 1e-5, 1e-5) {
			t.Fatalf("MatMul rows=%d differs from the naive reference", rows)
		}
		bt := tensor.New(3, 7) // b stored transposed
		for i := 0; i < 7; i++ {
			for j := 0; j < 3; j++ {
				bt.Data()[j*7+i] = b.Data()[i*3+j]
			}
		}
		if got := NewGemm(false, true).Forward([]*tensor.Tensor{a, bt})[0]; !tensor.AllClose(got, naive(a, b), 1e-5, 1e-5) {
			t.Fatalf("Gemm transB rows=%d differs from the naive reference", rows)
		}

		in := rnnInputs(uint64(rows), rows, 6, 4)
		want := naive(in[0], in[2])
		want.AddInPlace(naive(in[1], in[3]))
		want.BroadcastAddRow(in[4])
		for i, v := range want.Data() {
			want.Data()[i] = float32(math.Tanh(float64(v)))
		}
		if got := NewRNNTanhCell().Forward(in)[0]; !tensor.AllClose(got, want, 1e-5, 1e-5) {
			t.Fatalf("RNNTanhCell rows=%d differs from the naive reference", rows)
		}
	}
}
