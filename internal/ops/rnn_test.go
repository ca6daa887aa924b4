package ops

import (
	"math"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

func rnnInputs(seed uint64, n, i, h int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	return []*tensor.Tensor{
		tensor.RandNormal(rng, 0, 1, n, i),   // x
		tensor.RandNormal(rng, 0, 0.5, n, h), // h
		tensor.RandNormal(rng, 0, 0.4, i, h), // Wx
		tensor.RandNormal(rng, 0, 0.4, h, h), // Wh
		tensor.RandNormal(rng, 0, 0.1, h),    // b
	}
}

func TestRNNCellGradient(t *testing.T) {
	checkGrad(t, NewRNNTanhCell(), rnnInputs(51, 3, 4, 5),
		[]bool{true, true, true, true, true})
}

func TestRNNCellForwardValue(t *testing.T) {
	// 1×1 case: h' = tanh(x·wx + h·wh + b)
	x := tensor.From([]float32{0.5}, 1, 1)
	h := tensor.From([]float32{-0.25}, 1, 1)
	wx := tensor.From([]float32{2}, 1, 1)
	wh := tensor.From([]float32{4}, 1, 1)
	b := tensor.From([]float32{0.1}, 1)
	out := NewRNNTanhCell().Forward([]*tensor.Tensor{x, h, wx, wh, b})[0]
	want := math.Tanh(0.5*2 - 0.25*4 + 0.1)
	if math.Abs(float64(out.Data()[0])-want) > 1e-6 {
		t.Fatalf("h' = %v want %v", out.Data()[0], want)
	}
}

func TestRNNCellBoundedOutput(t *testing.T) {
	out := NewRNNTanhCell().Forward(rnnInputs(52, 8, 16, 12))[0]
	for _, v := range out.Data() {
		if v > 1 || v < -1 {
			t.Fatalf("tanh output %v out of range", v)
		}
	}
}

func TestRNNUnrolledSequenceLearns(t *testing.T) {
	// Unroll 3 time steps in a graph and verify the model validates, shape-
	// infers and backpropagates through time (shared weights accumulate
	// gradients from all steps).
	m := graph.NewModel("rnn-seq")
	rng := tensor.NewRNG(53)
	const n, idim, hdim = 4, 3, 6
	m.AddInput("h0", -1, hdim)
	for step := 0; step < 3; step++ {
		m.AddInput(tname("x", step), -1, idim)
	}
	m.AddInitializer("wx", tensor.RandNormal(rng, 0, 0.4, idim, hdim))
	m.AddInitializer("wh", tensor.RandNormal(rng, 0, 0.4, hdim, hdim))
	m.AddInitializer("b", tensor.New(hdim))
	prev := "h0"
	for step := 0; step < 3; step++ {
		out := tname("h", step+1)
		m.AddNode(graph.NewNode("RNNTanhCell", tname("cell", step),
			[]string{tname("x", step), prev, "wx", "wh", "b"}, []string{out}))
		prev = out
	}
	m.AddInput("target", -1, hdim)
	m.AddNode(graph.NewNode("MeanSquaredError", "mse", []string{prev, "target"}, []string{"loss"}))
	m.AddOutput("loss")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	shapes, err := m.InferShapes(n)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(shapes[prev], []int{n, hdim}) {
		t.Fatalf("final state shape %v", shapes[prev])
	}

	// run a few steps of SGD through time and require the loss to drop
	e := mustExec(t, m)
	feeds := map[string]*tensor.Tensor{
		"h0":     tensor.New(n, hdim),
		"target": tensor.RandUniform(rng, -0.5, 0.5, n, hdim),
	}
	for step := 0; step < 3; step++ {
		feeds[tname("x", step)] = tensor.RandNormal(rng, 0, 1, n, idim)
	}
	var first, last float32
	for it := 0; it < 60; it++ {
		out, err := e.InferenceAndBackprop(feeds, "loss")
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = out["loss"].Data()[0]
		}
		last = out["loss"].Data()[0]
		grads := e.Network().Gradients()
		if it == 0 && len(grads) != 3 {
			t.Fatalf("want gradients for wx, wh, b; got %d", len(grads))
		}
		for _, pg := range grads {
			pg.Param.Axpy(-0.1, pg.Grad)
		}
	}
	if last >= first/2 {
		t.Fatalf("BPTT did not learn: loss %v -> %v", first, last)
	}
}

func tname(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// mustExec builds a reference executor via the public interfaces without
// importing the executor package (avoiding an import cycle in tests):
// ops-level test drives the graph manually through FromNode.
func mustExec(t *testing.T, m *graph.Model) *miniExec {
	t.Helper()
	order, err := m.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	me := &miniExec{m: m, order: order, ops: map[*graph.Node]Operator{}}
	for _, n := range order {
		op, err := FromNode(n)
		if err != nil {
			t.Fatal(err)
		}
		me.ops[n] = op
	}
	return me
}

// miniExec is a minimal forward/backward interpreter used only by this
// test (the real one lives in internal/executor, which depends on ops).
type miniExec struct {
	m     *graph.Model
	order []*graph.Node
	ops   map[*graph.Node]Operator
	grads map[string]*tensor.Tensor
}

type miniNet struct{ me *miniExec }

func (me *miniExec) Network() *miniNet { return &miniNet{me} }

func (nn *miniNet) Gradients() []struct {
	Name  string
	Param *tensor.Tensor
	Grad  *tensor.Tensor
} {
	var out []struct {
		Name  string
		Param *tensor.Tensor
		Grad  *tensor.Tensor
	}
	for _, name := range nn.me.m.ParamNames() {
		if g, ok := nn.me.grads[name]; ok {
			out = append(out, struct {
				Name  string
				Param *tensor.Tensor
				Grad  *tensor.Tensor
			}{name, nn.me.m.Initializers[name], g})
		}
	}
	return out
}

func (me *miniExec) InferenceAndBackprop(feeds map[string]*tensor.Tensor, loss string) (map[string]*tensor.Tensor, error) {
	values := map[string]*tensor.Tensor{}
	for k, v := range feeds {
		values[k] = v
	}
	for k, v := range me.m.Initializers {
		values[k] = v
	}
	ins := map[*graph.Node][]*tensor.Tensor{}
	outs := map[*graph.Node][]*tensor.Tensor{}
	for _, n := range me.order {
		in := make([]*tensor.Tensor, len(n.Inputs))
		for i, name := range n.Inputs {
			in[i] = values[name]
		}
		out := me.ops[n].Forward(in)
		for i, name := range n.Outputs {
			if i < len(out) {
				values[name] = out[i]
			}
		}
		ins[n], outs[n] = in, out
	}
	gradOf := map[string]*tensor.Tensor{loss: tensor.Full(1, values[loss].Shape()...)}
	for i := len(me.order) - 1; i >= 0; i-- {
		n := me.order[i]
		gOuts := make([]*tensor.Tensor, len(outs[n]))
		any := false
		for j, name := range n.Outputs {
			if g, ok := gradOf[name]; ok {
				gOuts[j] = g
				any = true
			}
		}
		if !any {
			continue
		}
		for j := range gOuts {
			if gOuts[j] == nil {
				gOuts[j] = tensor.New(outs[n][j].Shape()...)
			}
		}
		gIns := me.ops[n].Backward(gOuts, ins[n], outs[n])
		for j, name := range n.Inputs {
			if j >= len(gIns) || gIns[j] == nil {
				continue
			}
			if prev, ok := gradOf[name]; ok {
				prev.AddInPlace(gIns[j])
			} else {
				gradOf[name] = gIns[j]
			}
		}
	}
	me.grads = map[string]*tensor.Tensor{}
	for _, name := range me.m.ParamNames() {
		if g, ok := gradOf[name]; ok {
			me.grads[name] = g
		}
	}
	return map[string]*tensor.Tensor{"loss": values[loss]}, nil
}

func TestDivPowGradients(t *testing.T) {
	rng := tensor.NewRNG(61)
	a := tensor.RandUniform(rng, 0.5, 2, 3, 3)
	b := tensor.RandUniform(rng, 0.5, 2, 3, 3)
	checkGrad(t, NewDiv(), []*tensor.Tensor{a, b}, []bool{true, true})
	checkGrad(t, NewPow(), []*tensor.Tensor{a.Clone(), b.Clone()}, []bool{true, true})
}

func TestDivPowValues(t *testing.T) {
	a := tensor.From([]float32{8, 9}, 2)
	b := tensor.From([]float32{2, 0.5}, 2)
	d := NewDiv().Forward([]*tensor.Tensor{a, b})[0]
	if d.Data()[0] != 4 || d.Data()[1] != 18 {
		t.Fatalf("div = %v", d.Data())
	}
	p := NewPow().Forward([]*tensor.Tensor{a, b})[0]
	if p.Data()[0] != 64 || p.Data()[1] != 3 {
		t.Fatalf("pow = %v", p.Data())
	}
}
