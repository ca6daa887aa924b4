package graph

import (
	"fmt"
	"sync"
)

// OpSchema describes one standardized operator: its arity, output count and
// shape-inference rule. The registry plays the role of the ONNX operator
// specification the paper builds on (118 standardized operators in ONNX
// 1.3.0); Deep500-Go registers the subset needed for its model zoo plus the
// paper's extensions (loss and optimizer-support operators), and — exactly
// as the paper does — allows user-defined operators to be registered at
// runtime.
type OpSchema struct {
	Name       string
	MinInputs  int
	MaxInputs  int // -1 means unbounded (variadic)
	NumOutputs int // -1 means any count (Split)
	// Domain is "" for standard ops and "deep500" for paper extensions.
	Domain string
	// InferShapes computes output shapes from input shapes. May be nil for
	// ops whose outputs cannot be statically inferred.
	InferShapes func(n *Node, in [][]int) ([][]int, error)
}

var (
	schemaMu sync.RWMutex
	schemas  = make(map[string]OpSchema)
)

// RegisterSchema adds or replaces an operator schema. It is used both by
// this package's built-ins and by user code defining custom operators.
func RegisterSchema(s OpSchema) {
	schemaMu.Lock()
	defer schemaMu.Unlock()
	schemas[s.Name] = s
}

// LookupSchema returns the schema for an op type.
func LookupSchema(name string) (OpSchema, bool) {
	schemaMu.RLock()
	defer schemaMu.RUnlock()
	s, ok := schemas[name]
	return s, ok
}

func sameShape(n *Node, in [][]int) ([][]int, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("%s: no inputs", n.OpType)
	}
	return [][]int{append([]int(nil), in[0]...)}, nil
}

func broadcastBinary(n *Node, in [][]int) ([][]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("%s: needs 2 inputs", n.OpType)
	}
	a, b := in[0], in[1]
	if len(a) >= len(b) {
		return [][]int{append([]int(nil), a...)}, nil
	}
	return [][]int{append([]int(nil), b...)}, nil
}

// checkBias checks a Gemm's or Conv's optional third input: one value per
// output column or filter, as the operators read it.
func checkBias(n *Node, in [][]int, outputs int) error {
	if len(in) < 3 || in[2] == nil {
		return nil
	}
	size := 1
	for _, d := range in[2] {
		size *= d
	}
	if size != outputs {
		return fmt.Errorf("%s: bias %v for %d outputs", n.OpType, in[2], outputs)
	}
	return nil
}

func ints(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// convLikeDims computes output H,W from attrs shared by Conv and pooling,
// and refuses attrs the operators could not run: strides and pads of fewer
// than two values, a stride below 1, a window larger than the padded input.
func convLikeDims(n *Node, h, w, kh, kw int) (int, int, error) {
	strides := ints(n.AttrInts("strides", []int64{1, 1}))
	pads := ints(n.AttrInts("pads", []int64{0, 0}))
	if len(strides) < 2 || len(pads) < 2 || min(strides[0], strides[1]) < 1 {
		return 0, 0, fmt.Errorf("%s: strides %v, pads %v", n.OpType, strides, pads)
	}
	if h+2*pads[0] < kh || w+2*pads[1] < kw {
		return 0, 0, fmt.Errorf("%s: %dx%d window over a %dx%d input padded by %v", n.OpType, kh, kw, h, w, pads)
	}
	oh := (h+2*pads[0]-kh)/strides[0] + 1
	ow := (w+2*pads[1]-kw)/strides[1] + 1
	return oh, ow, nil
}

func registerBuiltins() {
	unary := []string{"Relu", "LeakyRelu", "Elu", "Sigmoid", "Tanh", "Exp", "Log",
		"Sqrt", "Neg", "Abs", "Identity", "Softmax", "Clip"}
	for _, name := range unary {
		RegisterSchema(OpSchema{Name: name, MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: sameShape})
	}
	binary := []string{"Add", "Sub", "Mul", "Div", "Pow"}
	for _, name := range binary {
		RegisterSchema(OpSchema{Name: name, MinInputs: 2, MaxInputs: 2, NumOutputs: 1, InferShapes: broadcastBinary})
	}
	RegisterSchema(OpSchema{Name: "Sum", MinInputs: 1, MaxInputs: -1, NumOutputs: 1, InferShapes: sameShape})
	RegisterSchema(OpSchema{Name: "Dropout", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: sameShape})

	RegisterSchema(OpSchema{Name: "MatMul", MinInputs: 2, MaxInputs: 2, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			a, b := in[0], in[1]
			if len(a) != 2 || len(b) != 2 || a[1] != b[0] {
				return nil, fmt.Errorf("MatMul: incompatible shapes %v × %v", a, b)
			}
			return [][]int{{a[0], b[1]}}, nil
		}})

	RegisterSchema(OpSchema{Name: "Gemm", MinInputs: 2, MaxInputs: 3, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			a, b := in[0], in[1]
			if len(a) != 2 || len(b) != 2 {
				return nil, fmt.Errorf("Gemm: rank-2 inputs required, got %v × %v", a, b)
			}
			m, ka := a[0], a[1]
			if n.AttrInt("transA", 0) == 1 {
				m, ka = a[1], a[0]
			}
			kb, o := b[0], b[1]
			if n.AttrInt("transB", 0) == 1 {
				kb, o = b[1], b[0]
			}
			if ka != kb {
				return nil, fmt.Errorf("Gemm: inner dims %d vs %d", ka, kb)
			}
			if err := checkBias(n, in, o); err != nil {
				return nil, err
			}
			return [][]int{{m, o}}, nil
		}})

	RegisterSchema(OpSchema{Name: "Conv", MinInputs: 2, MaxInputs: 3, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x, w := in[0], in[1]
			if len(x) != 4 || len(w) != 4 {
				return nil, fmt.Errorf("Conv: NCHW input and MCKK weights required, got %v, %v", x, w)
			}
			if x[1] != w[1] {
				return nil, fmt.Errorf("Conv: channel mismatch %d vs %d", x[1], w[1])
			}
			if err := checkBias(n, in, w[0]); err != nil {
				return nil, err
			}
			oh, ow, err := convLikeDims(n, x[2], x[3], w[2], w[3])
			if err != nil {
				return nil, err
			}
			return [][]int{{x[0], w[0], oh, ow}}, nil
		}})

	pool := func(n *Node, in [][]int) ([][]int, error) {
		x := in[0]
		if len(x) != 4 {
			return nil, fmt.Errorf("%s: NCHW input required, got %v", n.OpType, x)
		}
		k := ints(n.AttrInts("kernel_shape", []int64{2, 2}))
		if len(k) < 2 {
			return nil, fmt.Errorf("%s: kernel_shape %v", n.OpType, k)
		}
		oh, ow, err := convLikeDims(n, x[2], x[3], k[0], k[1])
		if err != nil {
			return nil, err
		}
		return [][]int{{x[0], x[1], oh, ow}}, nil
	}
	RegisterSchema(OpSchema{Name: "MaxPool", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: pool})
	RegisterSchema(OpSchema{Name: "AveragePool", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: pool})

	RegisterSchema(OpSchema{Name: "GlobalAveragePool", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x := in[0]
			if len(x) != 4 {
				return nil, fmt.Errorf("GlobalAveragePool: NCHW required, got %v", x)
			}
			return [][]int{{x[0], x[1], 1, 1}}, nil
		}})

	RegisterSchema(OpSchema{Name: "BatchNormalization", MinInputs: 5, MaxInputs: 5, NumOutputs: 1, InferShapes: sameShape})

	RegisterSchema(OpSchema{Name: "Flatten", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x := in[0]
			axis := int(n.AttrInt("axis", 1))
			if axis < 0 || axis > len(x) {
				return nil, fmt.Errorf("Flatten: axis %d out of range for %v", axis, x)
			}
			a, b := 1, 1
			for i := 0; i < axis; i++ {
				a *= x[i]
			}
			for i := axis; i < len(x); i++ {
				b *= x[i]
			}
			return [][]int{{a, b}}, nil
		}})

	RegisterSchema(OpSchema{Name: "Reshape", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			target := ints(n.AttrInts("shape", nil))
			if target == nil {
				return nil, fmt.Errorf("Reshape: missing shape attribute")
			}
			vol := 1
			for _, d := range in[0] {
				vol *= d
			}
			out := append([]int(nil), target...)
			known, infer := 1, -1
			for i, d := range out {
				if d == -1 {
					infer = i
				} else {
					known *= d
				}
			}
			if infer >= 0 {
				out[infer] = vol / known
			}
			return [][]int{out}, nil
		}})

	RegisterSchema(OpSchema{Name: "Transpose", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x := in[0]
			perm := ints(n.AttrInts("perm", nil))
			if perm == nil {
				perm = make([]int, len(x))
				for i := range perm {
					perm[i] = len(x) - 1 - i
				}
			}
			out := make([]int, len(x))
			for i, p := range perm {
				out[i] = x[p]
			}
			return [][]int{out}, nil
		}})

	RegisterSchema(OpSchema{Name: "Concat", MinInputs: 1, MaxInputs: -1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			axis := int(n.AttrInt("axis", 0))
			out := append([]int(nil), in[0]...)
			for _, s := range in[1:] {
				out[axis] += s[axis]
			}
			return [][]int{out}, nil
		}})

	RegisterSchema(OpSchema{Name: "Split", MinInputs: 1, MaxInputs: 1, NumOutputs: -1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			axis := int(n.AttrInt("axis", 0))
			parts := ints(n.AttrInts("split", nil))
			if parts == nil {
				return nil, fmt.Errorf("Split: missing split attribute")
			}
			var out [][]int
			for _, p := range parts {
				s := append([]int(nil), in[0]...)
				s[axis] = p
				out = append(out, s)
			}
			return out, nil
		}})

	RegisterSchema(OpSchema{Name: "Pad", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x := in[0]
			pads := ints(n.AttrInts("pads", nil))
			out := append([]int(nil), x...)
			if pads != nil {
				if len(pads) != 2*len(x) {
					return nil, fmt.Errorf("Pad: pads length %d for rank %d", len(pads), len(x))
				}
				for i := range out {
					out[i] += pads[i] + pads[len(x)+i]
				}
			}
			return [][]int{out}, nil
		}})

	RegisterSchema(OpSchema{Name: "Constant", MinInputs: 0, MaxInputs: 0, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			a, ok := n.Attr("value")
			if !ok || a.T == nil {
				return nil, fmt.Errorf("Constant: missing value tensor")
			}
			return [][]int{append([]int(nil), a.T.Shape()...)}, nil
		}})

	reduce := func(n *Node, in [][]int) ([][]int, error) {
		x := in[0]
		axes := ints(n.AttrInts("axes", nil))
		keep := n.AttrInt("keepdims", 1) == 1
		if axes == nil {
			if keep {
				out := make([]int, len(x))
				for i := range out {
					out[i] = 1
				}
				return [][]int{out}, nil
			}
			return [][]int{{}}, nil
		}
		drop := make(map[int]bool)
		for _, a := range axes {
			drop[a] = true
		}
		var out []int
		for i, d := range x {
			if drop[i] {
				if keep {
					out = append(out, 1)
				}
			} else {
				out = append(out, d)
			}
		}
		return [][]int{out}, nil
	}
	RegisterSchema(OpSchema{Name: "ReduceMean", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: reduce})
	RegisterSchema(OpSchema{Name: "ReduceSum", MinInputs: 1, MaxInputs: 1, NumOutputs: 1, InferShapes: reduce})

	RegisterSchema(OpSchema{Name: "ArgMax", MinInputs: 1, MaxInputs: 1, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			x := in[0]
			axis := int(n.AttrInt("axis", int64(len(x)-1)))
			var out []int
			for i, d := range x {
				if i != axis {
					out = append(out, d)
				}
			}
			return [][]int{out}, nil
		}})

	// --- deep500 domain extensions (loss & training support, §IV-B) ---
	RegisterSchema(OpSchema{Name: "SoftmaxCrossEntropy", Domain: "deep500",
		MinInputs: 2, MaxInputs: 2, NumOutputs: 2,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			logits := in[0]
			if len(logits) != 2 {
				return nil, fmt.Errorf("SoftmaxCrossEntropy: rank-2 logits required, got %v", logits)
			}
			// outputs: scalar loss, probabilities
			return [][]int{{}, append([]int(nil), logits...)}, nil
		}})
	RegisterSchema(OpSchema{Name: "Accuracy", Domain: "deep500",
		MinInputs: 2, MaxInputs: 2, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			return [][]int{{}}, nil
		}})
	RegisterSchema(OpSchema{Name: "MeanSquaredError", Domain: "deep500",
		MinInputs: 2, MaxInputs: 2, NumOutputs: 1,
		InferShapes: func(n *Node, in [][]int) ([][]int, error) {
			return [][]int{{}}, nil
		}})
}

func init() { registerBuiltins() }

// InferShapes runs whole-graph shape inference in topological order,
// starting from graph-input shapes and initializer shapes. It returns a map
// of tensor name to shape. batch overrides dynamic (-1) leading dimensions.
func (m *Model) InferShapes(batch int) (map[string][]int, error) {
	shapes := make(map[string][]int)
	for _, in := range m.Inputs {
		s := append([]int(nil), in.Shape...)
		for i, d := range s {
			if d == -1 {
				if i == 0 && batch > 0 {
					s[i] = batch
				} else {
					return nil, fmt.Errorf("input %q has unresolved dynamic dimension %d", in.Name, i)
				}
			}
		}
		shapes[in.Name] = s
	}
	for name, t := range m.Initializers {
		shapes[name] = append([]int(nil), t.Shape()...)
	}
	order, err := m.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		schema, ok := LookupSchema(n.OpType)
		if !ok {
			return nil, fmt.Errorf("unknown op type %q", n.OpType)
		}
		if schema.InferShapes == nil {
			continue
		}
		in := make([][]int, len(n.Inputs))
		for i, name := range n.Inputs {
			if name == "" {
				continue
			}
			s, ok := shapes[name]
			if !ok {
				return nil, fmt.Errorf("node %q: input %q has no inferred shape", n.Name, name)
			}
			in[i] = s
		}
		out, err := schema.InferShapes(n, in)
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", n.Name, err)
		}
		for i, o := range n.Outputs {
			if i < len(out) {
				shapes[o] = out[i]
			}
		}
	}
	return shapes, nil
}
