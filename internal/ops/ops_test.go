package ops

import (
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/tensor"
)

// checkGrad numerically verifies op.Backward against central differences on
// a scalar projection L = Σ_k w_k · out_k of the outputs. wantGrad marks
// which inputs must have gradients checked (nil entries are skipped).
func checkGrad(t *testing.T, op Operator, inputs []*tensor.Tensor, check []bool) {
	t.Helper()
	rng := tensor.NewRNG(123)
	outs := op.Forward(inputs)
	weights := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		weights[i] = tensor.RandUniform(rng, -1, 1, o.Shape()...)
	}
	loss := func() float64 {
		os := op.Forward(inputs)
		var l float64
		for i, o := range os {
			l += tensor.Dot(o, weights[i])
		}
		return l
	}
	// analytic gradients (Forward again so cached state matches)
	outs = op.Forward(inputs)
	grads := op.Backward(weights, inputs, outs)
	const h = 1e-2
	for gi, doCheck := range check {
		if !doCheck {
			continue
		}
		if gi >= len(grads) || grads[gi] == nil {
			t.Fatalf("input %d: no gradient returned", gi)
		}
		data := inputs[gi].Data()
		stride := len(data)/7 + 1
		for i := 0; i < len(data); i += stride {
			orig := data[i]
			data[i] = orig + h
			lp := loss()
			data[i] = orig - h
			lm := loss()
			data[i] = orig
			num := (lp - lm) / (2 * h)
			got := float64(grads[gi].Data()[i])
			scale := math.Max(math.Abs(num), math.Abs(got))
			if diff := math.Abs(num - got); diff > 5e-3 && diff > 0.05*scale {
				t.Errorf("%s input %d elem %d: analytic %g numeric %g", op.Name(), gi, i, got, num)
			}
		}
	}
}

func avoidKinks(t *tensor.Tensor) *tensor.Tensor {
	for i, v := range t.Data() {
		if v >= 0 && v < 0.15 {
			t.Data()[i] = v + 0.2
		} else if v < 0 && v > -0.15 {
			t.Data()[i] = v - 0.2
		}
	}
	return t
}

func TestGemmGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := tensor.RandNormal(rng, 0, 1, 4, 3)
	b := tensor.RandNormal(rng, 0, 1, 3, 5)
	bias := tensor.RandNormal(rng, 0, 1, 5)
	checkGrad(t, NewGemm(false, false),
		[]*tensor.Tensor{a, b, bias}, []bool{true, true, true})
}

func TestGemmTransBGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := tensor.RandNormal(rng, 0, 1, 4, 3)
	b := tensor.RandNormal(rng, 0, 1, 5, 3) // stored transposed
	checkGrad(t, NewGemm(false, true),
		[]*tensor.Tensor{a, b}, []bool{true, true})
}

func TestGemmForwardValue(t *testing.T) {
	a := tensor.From([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.From([]float32{5, 6, 7, 8}, 2, 2)
	out := NewMatMul().Forward([]*tensor.Tensor{a, b})[0]
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("matmul = %v", out.Data())
		}
	}
}

func TestConvGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)
	w := tensor.RandNormal(rng, 0, 0.5, 3, 2, 3, 3)
	bias := tensor.RandNormal(rng, 0, 0.5, 3)
	op := NewConv2D(kernels.ConvIm2Col, 1, 1, 1, 1)
	checkGrad(t, op, []*tensor.Tensor{x, w, bias}, []bool{true, true, true})
}

func TestConvStridedGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := tensor.RandNormal(rng, 0, 1, 1, 2, 6, 6)
	w := tensor.RandNormal(rng, 0, 0.5, 2, 2, 3, 3)
	op := NewConv2D(kernels.ConvIm2Col, 2, 2, 1, 1)
	checkGrad(t, op, []*tensor.Tensor{x, w}, []bool{true, true})
}

func TestConvWinogradFallback(t *testing.T) {
	// Winograd op on a 5×5-kernel problem must silently fall back to im2col.
	rng := tensor.NewRNG(5)
	x := tensor.RandNormal(rng, 0, 1, 1, 1, 7, 7)
	w := tensor.RandNormal(rng, 0, 1, 1, 1, 5, 5)
	op := NewConv2D(kernels.ConvWinograd, 1, 1, 0, 0)
	out := op.Forward([]*tensor.Tensor{x, w})[0]
	ref := NewConv2D(kernels.ConvDirect, 1, 1, 0, 0).Forward([]*tensor.Tensor{x, w})[0]
	if !tensor.AllClose(out, ref, 1e-4, 1e-4) {
		t.Fatal("fallback output mismatch")
	}
}

func TestMaxPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	x := tensor.RandNormal(rng, 0, 2, 2, 2, 4, 4)
	op := NewMaxPool(2, 2, 2, 2, 0, 0)
	checkGrad(t, op, []*tensor.Tensor{x}, []bool{true})
}

func TestAvgPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(7)
	x := tensor.RandNormal(rng, 0, 1, 1, 3, 4, 4)
	checkGrad(t, NewAvgPool(2, 2, 2, 2, 0, 0), []*tensor.Tensor{x}, []bool{true})
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(8)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 3, 3)
	checkGrad(t, NewGlobalAvgPool(), []*tensor.Tensor{x}, []bool{true})
}

func TestActivationGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	for _, tc := range []struct {
		name string
		op   Operator
	}{
		{"relu", NewReLU()},
		{"leakyrelu", NewLeakyReLU(0.1)},
		{"sigmoid", NewSigmoid()},
		{"tanh", NewTanh()},
		{"neg", NewNeg()},
		{"abs", NewAbs()},
	} {
		x := avoidKinks(tensor.RandNormal(rng, 0, 1, 3, 4))
		t.Run(tc.name, func(t *testing.T) {
			checkGrad(t, tc.op, []*tensor.Tensor{x}, []bool{true})
		})
	}
	// positive-domain ops
	for _, tc := range []struct {
		name string
		op   Operator
	}{
		{"log", NewLog()},
		{"sqrt", NewSqrt()},
		{"exp", NewExp()},
	} {
		x := tensor.RandUniform(rng, 0.5, 2, 3, 4)
		t.Run(tc.name, func(t *testing.T) {
			checkGrad(t, tc.op, []*tensor.Tensor{x}, []bool{true})
		})
	}
}

func TestSoftmaxGradient(t *testing.T) {
	rng := tensor.NewRNG(10)
	x := tensor.RandNormal(rng, 0, 1, 4, 5)
	checkGrad(t, NewSoftmax(), []*tensor.Tensor{x}, []bool{true})
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(11)
	logits := tensor.RandNormal(rng, 0, 1, 4, 3)
	labels := tensor.From([]float32{0, 2, 1, 2}, 4)
	op := NewSoftmaxCrossEntropy()
	outs := op.Forward([]*tensor.Tensor{logits, labels})
	if outs[0].Size() != 1 {
		t.Fatal("loss not scalar")
	}
	grads := op.Backward([]*tensor.Tensor{tensor.Scalar(1), tensor.New(4, 3)},
		[]*tensor.Tensor{logits, labels}, outs)
	h := float32(1e-2)
	for i := 0; i < logits.Size(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + h
		lp := op.Forward([]*tensor.Tensor{logits, labels})[0].Data()[0]
		logits.Data()[i] = orig - h
		lm := op.Forward([]*tensor.Tensor{logits, labels})[0].Data()[0]
		logits.Data()[i] = orig
		num := float64(lp-lm) / float64(2*h)
		if math.Abs(num-float64(grads[0].Data()[i])) > 5e-3 {
			t.Fatalf("elem %d: analytic %g numeric %g", i, grads[0].Data()[i], num)
		}
	}
	if grads[1] != nil {
		t.Fatal("labels should have nil gradient")
	}
}

func TestMSEGradient(t *testing.T) {
	rng := tensor.NewRNG(12)
	p := tensor.RandNormal(rng, 0, 1, 3, 2)
	y := tensor.RandNormal(rng, 0, 1, 3, 2)
	checkGrad(t, NewMSE(), []*tensor.Tensor{p, y}, []bool{true, true})
}

func TestAccuracyOp(t *testing.T) {
	logits := tensor.From([]float32{
		0.9, 0.1, // -> 0
		0.2, 0.8, // -> 1
		0.6, 0.4, // -> 0
	}, 3, 2)
	labels := tensor.From([]float32{0, 1, 1}, 3)
	acc := NewAccuracy().Forward([]*tensor.Tensor{logits, labels})[0]
	if math.Abs(float64(acc.Data()[0])-2.0/3) > 1e-6 {
		t.Fatalf("accuracy = %v", acc.Data()[0])
	}
}

func TestBatchNormTrainingGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.RandNormal(rng, 0, 1, 4, 2, 3, 3)
	gamma := tensor.RandUniform(rng, 0.5, 1.5, 2)
	beta := tensor.RandNormal(rng, 0, 0.1, 2)
	runMean := tensor.New(2)
	runVar := tensor.Full(1, 2)
	op := NewBatchNorm(1e-5, 0) // momentum 0: running stats untouched across loss() calls
	op.SetTraining(true)
	checkGrad(t, op, []*tensor.Tensor{x, gamma, beta, runMean, runVar},
		[]bool{true, true, true, false, false})
}

func TestBatchNormInference(t *testing.T) {
	op := NewBatchNorm(1e-5, 0.1)
	op.SetTraining(false)
	x := tensor.From([]float32{1, 2, 3, 4}, 2, 2)
	gamma := tensor.From([]float32{1, 1}, 2)
	beta := tensor.From([]float32{0, 0}, 2)
	mean := tensor.From([]float32{2, 3}, 2)
	variance := tensor.From([]float32{1, 1}, 2)
	out := op.Forward([]*tensor.Tensor{x, gamma, beta, mean, variance})[0]
	// (x - mean)/sqrt(1+eps)
	if math.Abs(float64(out.Data()[0])+1) > 1e-3 || math.Abs(float64(out.Data()[3])-1) > 1e-3 {
		t.Fatalf("inference bn = %v", out.Data())
	}
}

func TestDropoutTrainingAndInference(t *testing.T) {
	op := NewDropout(0.5, 42)
	x := tensor.Full(1, 1000)
	op.SetTraining(false)
	out := op.Forward([]*tensor.Tensor{x})[0]
	if !tensor.AllClose(out, x, 0, 0) {
		t.Fatal("inference dropout must be identity")
	}
	op.SetTraining(true)
	out = op.Forward([]*tensor.Tensor{x})[0]
	zeros := 0
	for _, v := range out.Data() {
		if v == 0 {
			zeros++
		} else if math.Abs(float64(v)-2) > 1e-6 {
			t.Fatalf("kept value should be scaled to 2, got %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at ratio 0.5", zeros)
	}
	// backward respects the same mask
	g := op.Backward([]*tensor.Tensor{tensor.Full(1, 1000)}, []*tensor.Tensor{x}, []*tensor.Tensor{out})[0]
	for i, v := range out.Data() {
		if (v == 0) != (g.Data()[i] == 0) {
			t.Fatal("mask mismatch between forward and backward")
		}
	}
}

func TestElementwiseOpsGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	a := tensor.RandNormal(rng, 0, 1, 3, 3)
	b := tensor.RandNormal(rng, 0, 1, 3, 3)
	checkGrad(t, NewAdd(), []*tensor.Tensor{a, b}, []bool{true, true})
	checkGrad(t, NewSub(), []*tensor.Tensor{a, b}, []bool{true, true})
	checkGrad(t, NewMul(), []*tensor.Tensor{a, b}, []bool{true, true})
	c := tensor.RandNormal(rng, 0, 1, 3, 3)
	checkGrad(t, NewSum(), []*tensor.Tensor{a, b, c}, []bool{true, true, true})
}

func TestShapeOps(t *testing.T) {
	rng := tensor.NewRNG(15)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 4)
	fl := NewFlatten(1).Forward([]*tensor.Tensor{x})[0]
	if !tensor.ShapeEq(fl.Shape(), []int{2, 12}) {
		t.Fatalf("flatten shape %v", fl.Shape())
	}
	rs := NewReshape([]int{4, 6}).Forward([]*tensor.Tensor{x})[0]
	if !tensor.ShapeEq(rs.Shape(), []int{4, 6}) {
		t.Fatalf("reshape shape %v", rs.Shape())
	}
	checkGrad(t, NewFlatten(1), []*tensor.Tensor{x}, []bool{true})
	checkGrad(t, NewReshape([]int{4, 6}), []*tensor.Tensor{x}, []bool{true})
}

func TestSplitConcatRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(16)
	x := tensor.RandNormal(rng, 0, 1, 10, 4)
	split := NewSplit(0, []int{3, 3, 4})
	parts := split.Forward([]*tensor.Tensor{x})
	if len(parts) != 3 || parts[2].Dim(0) != 4 {
		t.Fatalf("split shapes: %v", parts)
	}
	cat := NewConcat(0).Forward(parts)[0]
	if !tensor.AllClose(cat, x, 0, 0) {
		t.Fatal("split+concat is not identity")
	}
	checkGrad(t, split, []*tensor.Tensor{x}, []bool{true})
	checkGrad(t, NewConcat(0), parts, []bool{true, true, true})
}

func TestFromNodeFactory(t *testing.T) {
	n := graph.NewNode("Conv", "c", []string{"x", "w"}, []string{"y"},
		graph.IntsAttr("strides", 2, 2), graph.IntsAttr("pads", 1, 1), graph.StringAttr("algo", "direct"))
	op, err := FromNode(n)
	if err != nil {
		t.Fatal(err)
	}
	conv := op.(*Conv2DOp)
	if conv.StrideH != 2 || conv.PadW != 1 || conv.Algo != kernels.ConvDirect {
		t.Fatalf("attrs not honored: %+v", conv)
	}
	if _, err := FromNode(graph.NewNode("NoSuchOp", "x", nil, nil)); err == nil {
		t.Fatal("unknown op should fail")
	}
}

// TestFromNodeRejectsShortAttrs: a Conv or pooling node whose strides,
// pads or window list one value is refused by the factory with an error,
// not indexed out of range.
func TestFromNodeRejectsShortAttrs(t *testing.T) {
	for _, op := range []string{"Conv", "MaxPool", "AveragePool"} {
		for _, attr := range []graph.Attribute{
			graph.IntsAttr("strides", 2), graph.IntsAttr("pads", 1), graph.IntsAttr("kernel_shape", 3),
		} {
			if op == "Conv" && attr.Name == "kernel_shape" {
				continue // Conv takes its window from the weight's shape
			}
			n := graph.NewNode(op, "n", []string{"x", "w"}, []string{"y"}, attr)
			if _, err := FromNode(n); err == nil {
				t.Errorf("%s with one-value %s: no error", op, attr.Name)
			}
		}
	}
}

func TestCustomOperatorRegistration(t *testing.T) {
	// The paper's median-pooling custom operator (Listing 3), in Go:
	// registering an identity-like stand-in exercises the same path.
	Register("MedianPool3", func(n *graph.Node) (Operator, error) {
		return NewIdentity(), nil
	})
	found := false
	for _, n := range RegisteredOps() {
		if n == "MedianPool3" {
			found = true
		}
	}
	if !found {
		t.Fatal("custom op missing from listing")
	}
}

func TestIdentityAndConstant(t *testing.T) {
	x := tensor.From([]float32{1, 2}, 2)
	out := NewIdentity().Forward([]*tensor.Tensor{x})[0]
	if !tensor.AllClose(out, x, 0, 0) {
		t.Fatal("identity broken")
	}
	c := NewConstant(x).Forward(nil)[0]
	if !tensor.AllClose(c, x, 0, 0) {
		t.Fatal("constant broken")
	}
	c.Data()[0] = 99
	if x.Data()[0] == 99 {
		t.Fatal("constant must copy")
	}
}
