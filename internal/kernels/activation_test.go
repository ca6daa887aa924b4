package kernels

import (
	"math"
	"testing"

	"deep500/internal/tensor"
)

func TestReLU(t *testing.T) {
	in := []float32{-1, 0, 2}
	out := make([]float32, 3)
	ReLU(in, out)
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("ReLU = %v", out)
	}
	g := make([]float32, 3)
	ReLUBackward(in, []float32{5, 5, 5}, g)
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("ReLUBackward = %v", g)
	}
}

func TestSigmoidTanh(t *testing.T) {
	in := []float32{0}
	out := make([]float32, 1)
	Sigmoid(in, out)
	if math.Abs(float64(out[0])-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", out[0])
	}
	Tanh(in, out)
	if out[0] != 0 {
		t.Fatalf("tanh(0) = %v", out[0])
	}
	// backward via finite differences
	x := []float32{0.3}
	h := float32(1e-3)
	y0, y1, yb := make([]float32, 1), make([]float32, 1), make([]float32, 1)
	Sigmoid([]float32{x[0] - h}, y0)
	Sigmoid([]float32{x[0] + h}, y1)
	Sigmoid(x, yb)
	g := make([]float32, 1)
	SigmoidBackward(yb, []float32{1}, g)
	num := (y1[0] - y0[0]) / (2 * h)
	if math.Abs(float64(num-g[0])) > 1e-3 {
		t.Fatalf("sigmoid grad %v vs numeric %v", g[0], num)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(4)
	n, m := 5, 7
	in := randSlice(rng, n*m)
	out := make([]float32, n*m)
	Softmax(in, out, n, m)
	for r := 0; r < n; r++ {
		var s float64
		for _, v := range out[r*m : (r+1)*m] {
			if v < 0 || v > 1 {
				t.Fatalf("prob out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	in := []float32{1000, 1001, 1002}
	out := make([]float32, 3)
	Softmax(in, out, 1, 3)
	for _, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflow: %v", out)
		}
	}
	if out[2] <= out[1] || out[1] <= out[0] {
		t.Fatalf("ordering lost: %v", out)
	}
}

func TestCrossEntropy(t *testing.T) {
	// perfect prediction ⇒ loss ≈ 0; uniform ⇒ log(m)
	probs := []float32{1, 0, 0}
	if l := CrossEntropyForward(probs, []int{0}, 1, 3); l > 1e-5 {
		t.Fatalf("perfect loss = %v", l)
	}
	uniform := []float32{1. / 3, 1. / 3, 1. / 3}
	if l := CrossEntropyForward(uniform, []int{1}, 1, 3); math.Abs(float64(l)-math.Log(3)) > 1e-5 {
		t.Fatalf("uniform loss = %v", l)
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	// numeric check of d loss / d logits through softmax+CE
	rng := tensor.NewRNG(8)
	n, m := 3, 4
	logits := randSlice(rng, n*m)
	labels := []int{1, 3, 0}
	probs := make([]float32, n*m)
	Softmax(logits, probs, n, m)
	grad := make([]float32, n*m)
	SoftmaxCrossEntropyBackward(probs, labels, grad, n, m)
	h := float32(1e-2)
	for i := 0; i < n*m; i++ {
		lp := make([]float32, n*m)
		lm := make([]float32, n*m)
		copy(lp, logits)
		copy(lm, logits)
		lp[i] += h
		lm[i] -= h
		pp := make([]float32, n*m)
		pm := make([]float32, n*m)
		Softmax(lp, pp, n, m)
		Softmax(lm, pm, n, m)
		num := (CrossEntropyForward(pp, labels, n, m) - CrossEntropyForward(pm, labels, n, m)) / (2 * h)
		if math.Abs(float64(num-grad[i])) > 5e-3 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad[i], num)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	s := PoolShape{N: 1, C: 1, H: 4, W: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	in := []float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}
	out := make([]float32, s.OutputSize())
	argmax := make([]int32, s.OutputSize())
	MaxPool2D(s, in, out, argmax)
	want := []float32{4, 8, 12, 16}
	if maxAbsDiff(out, want) != 0 {
		t.Fatalf("maxpool = %v", out)
	}
	gin := make([]float32, len(in))
	MaxPool2DBackward(s, []float32{1, 2, 3, 4}, argmax, gin)
	if gin[5] != 1 || gin[7] != 2 || gin[13] != 3 || gin[15] != 4 {
		t.Fatalf("maxpool backward = %v", gin)
	}
}

func TestAvgPoolAndBackward(t *testing.T) {
	s := PoolShape{N: 1, C: 1, H: 2, W: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	in := []float32{1, 2, 3, 4}
	out := make([]float32, 1)
	AvgPool2D(s, in, out)
	if out[0] != 2.5 {
		t.Fatalf("avgpool = %v", out[0])
	}
	gin := make([]float32, 4)
	AvgPool2DBackward(s, []float32{4}, gin)
	for _, g := range gin {
		if g != 1 {
			t.Fatalf("avgpool backward = %v", gin)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := []float32{1, 2, 3, 4, 10, 20, 30, 40}
	out := make([]float32, 2)
	GlobalAvgPool(1, 2, 2, 2, in, out)
	if out[0] != 2.5 || out[1] != 25 {
		t.Fatalf("gap = %v", out)
	}
	gin := make([]float32, 8)
	GlobalAvgPoolBackward(1, 2, 2, 2, []float32{4, 8}, gin)
	if gin[0] != 1 || gin[4] != 2 {
		t.Fatalf("gap backward = %v", gin)
	}
}

func TestBatchNormForwardNormalizes(t *testing.T) {
	rng := tensor.NewRNG(9)
	n, c, hw := 8, 3, 16
	in := randSlice(rng, n*c*hw)
	gamma := []float32{1, 1, 1}
	beta := []float32{0, 0, 0}
	out := make([]float32, len(in))
	BatchNormForward(n, c, hw, in, gamma, beta, out, 1e-5, nil, nil, 0.1)
	// each channel of out should have ≈0 mean and ≈1 variance
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			for j := 0; j < hw; j++ {
				v := float64(out[(i*c+ch)*hw+j])
				sum += v
				sq += v * v
			}
		}
		cnt := float64(n * hw)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean=%v var=%v", ch, mean, variance)
		}
	}
}

func TestBatchNormBackwardNumeric(t *testing.T) {
	rng := tensor.NewRNG(10)
	n, c, hw := 3, 2, 4
	in := randSlice(rng, n*c*hw)
	gamma := []float32{1.5, 0.5}
	beta := []float32{0.1, -0.2}
	eps := float32(1e-5)
	forward := func(x []float32) []float32 {
		out := make([]float32, len(x))
		BatchNormForward(n, c, hw, x, gamma, beta, out, eps, nil, nil, 0)
		return out
	}
	out := make([]float32, len(in))
	mean, variance := BatchNormForward(n, c, hw, in, gamma, beta, out, eps, nil, nil, 0)
	gradOut := randSlice(rng, len(in))
	gradIn := make([]float32, len(in))
	gradGamma := make([]float32, c)
	gradBeta := make([]float32, c)
	BatchNormBackward(n, c, hw, in, gradOut, gamma, mean, variance, eps, gradIn, gradGamma, gradBeta)
	h := float32(1e-2)
	for i := 0; i < len(in); i += 5 {
		xp := append([]float32(nil), in...)
		xm := append([]float32(nil), in...)
		xp[i] += h
		xm[i] -= h
		op, om := forward(xp), forward(xm)
		var num float64
		for j := range op {
			num += float64(op[j]-om[j]) / float64(2*h) * float64(gradOut[j])
		}
		if math.Abs(num-float64(gradIn[i])) > 2e-2 {
			t.Fatalf("bn gradIn[%d] = %v numeric %v", i, gradIn[i], num)
		}
	}
}

func TestFusedOptimizersMatchComposed(t *testing.T) {
	rng := tensor.NewRNG(13)
	n := 100
	param := randSlice(rng, n)
	grad := randSlice(rng, n)

	// Adam fused vs step-by-step composition
	pf := append([]float32(nil), param...)
	m := make([]float32, n)
	v := make([]float32, n)
	AdamFused(pf, grad, m, v, 0.001, 0.9, 0.999, 1e-8, 1)

	pc := append([]float32(nil), param...)
	mc := make([]float32, n)
	vc := make([]float32, n)
	for i := 0; i < n; i++ {
		mc[i] = 0.9*mc[i] + 0.1*grad[i]
		vc[i] = 0.999*vc[i] + 0.001*grad[i]*grad[i]
	}
	bc1 := 1 - float32(math.Pow(0.9, 1))
	bc2 := 1 - float32(math.Pow(0.999, 1))
	for i := 0; i < n; i++ {
		pc[i] -= 0.001 * (mc[i] / bc1) / (float32(math.Sqrt(float64(vc[i]/bc2))) + 1e-8)
	}
	if d := maxAbsDiff(pf, pc); d > 1e-5 {
		t.Fatalf("fused vs composed Adam diff %g", d)
	}
}
