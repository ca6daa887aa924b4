package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"deep500/internal/tensor"
)

// smallMLP builds x -> Gemm(w1) -> Relu -> Gemm(w2) -> Softmax.
func smallMLP() *Model {
	m := NewModel("mlp")
	m.AddInput("x", -1, 4)
	rng := tensor.NewRNG(1)
	m.AddInitializer("w1", tensor.RandNormal(rng, 0, 0.1, 4, 8))
	m.AddInitializer("b1", tensor.New(8))
	m.AddInitializer("w2", tensor.RandNormal(rng, 0, 0.1, 8, 3))
	m.AddNode(NewNode("Gemm", "fc1", []string{"x", "w1", "b1"}, []string{"h1"}))
	m.AddNode(NewNode("Relu", "act1", []string{"h1"}, []string{"h2"}))
	m.AddNode(NewNode("MatMul", "fc2", []string{"h2", "w2"}, []string{"logits"}))
	m.AddNode(NewNode("Softmax", "prob", []string{"logits"}, []string{"y"}))
	m.AddOutput("y")
	return m
}

func TestValidateOK(t *testing.T) {
	if err := smallMLP().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesUndefinedInput(t *testing.T) {
	m := smallMLP()
	m.AddNode(NewNode("Relu", "bad", []string{"ghost"}, []string{"z"}))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "undefined tensor") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesDuplicateProducer(t *testing.T) {
	m := smallMLP()
	m.AddNode(NewNode("Relu", "dup", []string{"h1"}, []string{"h2"}))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "produced by both") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesUnknownOp(t *testing.T) {
	m := smallMLP()
	m.AddNode(NewNode("FluxCapacitor", "fc", []string{"y"}, []string{"z"}))
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "unknown op type") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	m := NewModel("cyc")
	m.AddInput("x", 1)
	m.AddNode(NewNode("Add", "a", []string{"x", "c"}, []string{"b"}))
	m.AddNode(NewNode("Relu", "r", []string{"b"}, []string{"c"}))
	m.AddOutput("c")
	if err := m.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateArity(t *testing.T) {
	m := NewModel("bad-arity")
	m.AddInput("x", 2, 2)
	m.AddNode(NewNode("MatMul", "mm", []string{"x"}, []string{"y"}))
	m.AddOutput("y")
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "inputs") {
		t.Fatalf("err = %v", err)
	}

	// A second output of a one-output op would never be written, and a
	// model declaring it would silently return without it.
	m = NewModel("bad-outputs")
	m.AddInput("x", 2, 2)
	m.AddNode(NewNode("Relu", "r", []string{"x"}, []string{"y", "y2"}))
	m.AddOutput("y2")
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), `node "r" (Relu) has 2 outputs`) {
		t.Fatalf("err = %v", err)
	}
}

func TestTopoSortOrder(t *testing.T) {
	m := smallMLP()
	order, err := m.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.Name] = i
	}
	if !(pos["fc1"] < pos["act1"] && pos["act1"] < pos["fc2"] && pos["fc2"] < pos["prob"]) {
		t.Fatalf("bad order: %v", pos)
	}
}

func TestProducerConsumers(t *testing.T) {
	m := smallMLP()
	cs := m.Consumers("h2")
	if len(cs) != 1 || cs[0].Name != "fc2" {
		t.Fatalf("Consumers(h2) = %v", cs)
	}
}

func TestShapeInference(t *testing.T) {
	m := smallMLP()
	shapes, err := m.InferShapes(16)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"x": {16, 4}, "h1": {16, 8}, "h2": {16, 8}, "logits": {16, 3}, "y": {16, 3},
	}
	for name, w := range want {
		if !tensor.ShapeEq(shapes[name], w) {
			t.Errorf("%s: %v want %v", name, shapes[name], w)
		}
	}
}

func TestShapeInferenceConvNet(t *testing.T) {
	m := NewModel("cnn")
	m.AddInput("x", -1, 3, 32, 32)
	m.AddInitializer("w", tensor.New(16, 3, 3, 3))
	m.AddNode(NewNode("Conv", "c1", []string{"x", "w"}, []string{"a"},
		IntsAttr("strides", 1, 1), IntsAttr("pads", 1, 1), IntsAttr("kernel_shape", 3, 3)))
	m.AddNode(NewNode("MaxPool", "p1", []string{"a"}, []string{"b"},
		IntsAttr("kernel_shape", 2, 2), IntsAttr("strides", 2, 2)))
	m.AddNode(NewNode("GlobalAveragePool", "gap", []string{"b"}, []string{"c"}))
	m.AddNode(NewNode("Flatten", "fl", []string{"c"}, []string{"d"}))
	m.AddOutput("d")
	shapes, err := m.InferShapes(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string][]int{
		"a": {8, 16, 32, 32}, "b": {8, 16, 16, 16}, "c": {8, 16, 1, 1}, "d": {8, 16},
	} {
		if !tensor.ShapeEq(shapes[name], w) {
			t.Errorf("%s: %v want %v", name, shapes[name], w)
		}
	}
}

func TestShapeInferenceSplitConcat(t *testing.T) {
	m := NewModel("sc")
	m.AddInput("x", 10, 4)
	m.AddNode(NewNode("Split", "sp", []string{"x"}, []string{"a", "b"},
		IntAttr("axis", 0), IntsAttr("split", 3, 7)))
	m.AddNode(NewNode("Concat", "cc", []string{"a", "b"}, []string{"y"}, IntAttr("axis", 0)))
	m.AddOutput("y")
	shapes, err := m.InferShapes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(shapes["a"], []int{3, 4}) || !tensor.ShapeEq(shapes["b"], []int{7, 4}) {
		t.Fatalf("split shapes %v %v", shapes["a"], shapes["b"])
	}
	if !tensor.ShapeEq(shapes["y"], []int{10, 4}) {
		t.Fatalf("concat shape %v", shapes["y"])
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	m := smallMLP()
	m.DocString = "round trip"
	m.FindNode("fc1").Attrs["alpha"] = FloatAttr("alpha", 1.25)
	m.FindNode("fc1").Attrs["tag"] = StringAttr("tag", "dense")
	m.FindNode("fc1").Attrs["ks"] = IntsAttr("ks", 3, 3)
	m.FindNode("fc1").Attrs["ws"] = Attribute{Name: "ws", Type: AttrFloats, Floats: []float64{0.5, 0.25}}
	m.FindNode("prob").Attrs["v"] = Attribute{Name: "v", Type: AttrTensor, T: tensor.From([]float32{1, 2}, 2)}
	var buf bytes.Buffer
	if err := Encode(m, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.DocString != m.DocString {
		t.Fatal("metadata lost")
	}
	if len(got.Nodes) != len(m.Nodes) || len(got.Initializers) != len(m.Initializers) {
		t.Fatalf("structure lost: %d nodes %d inits", len(got.Nodes), len(got.Initializers))
	}
	if !tensor.AllClose(got.Initializers["w1"], m.Initializers["w1"], 0, 0) {
		t.Fatal("initializer data corrupted")
	}
	fc1 := got.FindNode("fc1")
	if fc1.AttrFloat("alpha", 0) != 1.25 || fc1.AttrString("tag", "") != "dense" {
		t.Fatal("attributes lost")
	}
	if got.FindNode("fc1").AttrInts("ks", nil)[1] != 3 {
		t.Fatal("ints attribute lost")
	}
	if ws, ok := fc1.Attr("ws"); !ok || len(ws.Floats) != 2 || ws.Floats[1] != 0.25 {
		t.Fatal("floats attribute lost")
	}
	if v, ok := got.FindNode("prob").Attr("v"); !ok || v.T == nil || v.T.Data()[1] != 2 {
		t.Fatal("tensor attribute lost")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationDeterministic(t *testing.T) {
	m := smallMLP()
	var a, b bytes.Buffer
	if err := Encode(m, &a); err != nil {
		t.Fatal(err)
	}
	if err := Encode(m, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOPE.…"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader([]byte("D5NX"))); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/m.d5nx"
	m := smallMLP()
	if err := Save(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "mlp" {
		t.Fatalf("name %q", got.Name)
	}
}

func TestVisitorDispatch(t *testing.T) {
	m := smallMLP()
	var seen []string
	v := NewVisitor().
		On("Gemm", func(_ *Model, n *Node) error { seen = append(seen, "gemm:"+n.Name); return nil }).
		On("MatMul", func(_ *Model, n *Node) error { seen = append(seen, "mm:"+n.Name); return nil })
	v.Default = func(_ *Model, n *Node) error { seen = append(seen, "def:"+n.Name); return nil }
	var entered, left bool
	v.Enter = func(*Model) error { entered = true; return nil }
	v.Leave = func(*Model) error { left = true; return nil }
	if err := v.Walk(m); err != nil {
		t.Fatal(err)
	}
	if !entered || !left {
		t.Fatal("enter/leave not called")
	}
	want := []string{"gemm:fc1", "def:act1", "mm:fc2", "def:prob"}
	if len(seen) != len(want) {
		t.Fatalf("seen %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v want %v", seen, want)
		}
	}
}

func TestVisitorUnhandledFails(t *testing.T) {
	v := NewVisitor()
	if err := v.Walk(smallMLP()); err == nil {
		t.Fatal("expected failure on unhandled op")
	}
}

func TestRemoveNode(t *testing.T) {
	m := smallMLP()
	n := m.FindNode("prob")
	if !m.RemoveNode(n) {
		t.Fatal("node not removed")
	}
	if m.FindNode("prob") != nil {
		t.Fatal("node still present")
	}
	if m.RemoveNode(n) {
		t.Fatal("double removal reported success")
	}
}

func TestParamCount(t *testing.T) {
	m := smallMLP()
	if m.ParamCount() != 4*8+8+8*3 {
		t.Fatalf("ParamCount = %d", m.ParamCount())
	}
}

func TestCustomSchemaRegistration(t *testing.T) {
	RegisterSchema(OpSchema{Name: "MedianPool", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: sameShape})
	if _, ok := LookupSchema("MedianPool"); !ok {
		t.Fatal("custom schema not registered")
	}
	m := NewModel("custom")
	m.AddInput("x", 4)
	m.AddNode(NewNode("MedianPool", "mp", []string{"x"}, []string{"y"}))
	m.AddOutput("y")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random DAG built by chaining unary ops is valid, sortable,
// and survives a serialization round trip.
func TestPropChainSerializeRoundTrip(t *testing.T) {
	opTypes := []string{"Relu", "Sigmoid", "Tanh", "Exp", "Identity"}
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		m := NewModel("chain")
		m.AddInput(tName(0), 2, 3)
		n := rng.Intn(12) + 1
		for i := 0; i < n; i++ {
			op := opTypes[rng.Intn(len(opTypes))]
			m.AddNode(NewNode(op, nodeName(i), []string{tName(i)}, []string{tName(i + 1)}))
		}
		m.AddOutput(tName(n))
		if m.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if Encode(m, &buf) != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || len(got.Nodes) != n {
			return false
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string { return "n" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func tName(i int) string    { return "t" + string(rune('0'+i/10)) + string(rune('0'+i%10)) }
