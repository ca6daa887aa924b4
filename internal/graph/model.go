package graph

import (
	"fmt"
	"sort"

	"deep500/internal/tensor"
)

// Node is one operator invocation in the DAG. Inputs and Outputs are tensor
// names; the edges of the graph are implied by name matching, as in ONNX.
type Node struct {
	Name    string
	OpType  string
	Inputs  []string
	Outputs []string
	Attrs   map[string]Attribute
}

// NewNode constructs a node with the given op type, name, inputs, outputs
// and attributes.
func NewNode(opType, name string, inputs, outputs []string, attrs ...Attribute) *Node {
	n := &Node{
		Name:    name,
		OpType:  opType,
		Inputs:  append([]string(nil), inputs...),
		Outputs: append([]string(nil), outputs...),
		Attrs:   make(map[string]Attribute, len(attrs)),
	}
	for _, a := range attrs {
		n.Attrs[a.Name] = a
	}
	return n
}

// Attr returns the named attribute and whether it exists.
func (n *Node) Attr(name string) (Attribute, bool) {
	a, ok := n.Attrs[name]
	return a, ok
}

// AttrInt returns an int attribute or def when absent.
func (n *Node) AttrInt(name string, def int64) int64 {
	if a, ok := n.Attrs[name]; ok && a.Type == AttrInt {
		return a.I
	}
	return def
}

// AttrFloat returns a float attribute or def when absent.
func (n *Node) AttrFloat(name string, def float64) float64 {
	if a, ok := n.Attrs[name]; ok && a.Type == AttrFloat {
		return a.F
	}
	return def
}

// AttrInts returns an int-list attribute or def when absent.
func (n *Node) AttrInts(name string, def []int64) []int64 {
	if a, ok := n.Attrs[name]; ok && a.Type == AttrInts {
		return a.Ints
	}
	return def
}

// AttrString returns a string attribute or def when absent.
func (n *Node) AttrString(name, def string) string {
	if a, ok := n.Attrs[name]; ok && a.Type == AttrString {
		return a.S
	}
	return def
}

// TensorInfo names a graph input/output and its static shape. Dimension -1
// means "dynamic" (typically the batch dimension).
type TensorInfo struct {
	Name  string
	Shape []int
}

// Model is a D5NX network: a named DAG of nodes plus graph inputs, outputs
// and initializers (trainable parameters and constants).
type Model struct {
	Name         string
	Nodes        []*Node
	Inputs       []TensorInfo
	Outputs      []string
	Initializers map[string]*tensor.Tensor
	// DocString carries free-form provenance for reproducibility.
	DocString string
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name, Initializers: make(map[string]*tensor.Tensor)}
}

// AddNode appends a node to the model and returns it.
func (m *Model) AddNode(n *Node) *Node {
	m.Nodes = append(m.Nodes, n)
	return n
}

// RemoveNode removes the node (by pointer identity). It reports whether the
// node was found.
func (m *Model) RemoveNode(n *Node) bool {
	for i, x := range m.Nodes {
		if x == n {
			m.Nodes = append(m.Nodes[:i], m.Nodes[i+1:]...)
			return true
		}
	}
	return false
}

// FindNode returns the first node with the given name, or nil.
func (m *Model) FindNode(name string) *Node {
	for _, n := range m.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Consumers returns all nodes that read the named tensor.
func (m *Model) Consumers(tensorName string) []*Node {
	var out []*Node
	for _, n := range m.Nodes {
		for _, in := range n.Inputs {
			if in == tensorName {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// AddInput declares a graph input.
func (m *Model) AddInput(name string, shape ...int) {
	m.Inputs = append(m.Inputs, TensorInfo{Name: name, Shape: append([]int(nil), shape...)})
}

// AddOutput declares a graph output.
func (m *Model) AddOutput(name string) { m.Outputs = append(m.Outputs, name) }

// AddInitializer registers a parameter/constant tensor.
func (m *Model) AddInitializer(name string, t *tensor.Tensor) {
	m.Initializers[name] = t
}

// ParamNames returns initializer names in deterministic (sorted) order.
func (m *Model) ParamNames() []string {
	names := make([]string, 0, len(m.Initializers))
	for n := range m.Initializers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int64 {
	var n int64
	for _, t := range m.Initializers {
		n += int64(t.Size())
	}
	return n
}

// TopoSort returns the nodes in a topological order (Kahn's algorithm with
// deterministic tie-breaking by insertion order). It fails if the graph has
// a cycle or an input that nothing produces.
func (m *Model) TopoSort() ([]*Node, error) {
	available := make(map[string]bool, len(m.Inputs)+len(m.Initializers))
	for _, in := range m.Inputs {
		available[in.Name] = true
	}
	for name := range m.Initializers {
		available[name] = true
	}
	// Constant nodes with no inputs are sources too — handled naturally
	// since all their (zero) inputs are available.
	remaining := append([]*Node(nil), m.Nodes...)
	var order []*Node
	for len(remaining) > 0 {
		progressed := false
		next := remaining[:0]
		for _, n := range remaining {
			ready := true
			for _, in := range n.Inputs {
				if in != "" && !available[in] {
					ready = false
					break
				}
			}
			if ready {
				order = append(order, n)
				for _, o := range n.Outputs {
					available[o] = true
				}
				progressed = true
			} else {
				next = append(next, n)
			}
		}
		remaining = next
		if !progressed {
			return nil, fmt.Errorf("graph %q: cycle or undefined input involving %d nodes (first: %s %q)",
				m.Name, len(remaining), remaining[0].OpType, remaining[0].Name)
		}
	}
	return order, nil
}

// Validate checks structural invariants: unique node outputs, resolvable
// inputs, declared outputs produced, acyclicity, and known op types with
// arity within schema bounds.
func (m *Model) Validate() error {
	produced := make(map[string]string) // tensor -> producer description
	for _, in := range m.Inputs {
		produced[in.Name] = "graph input"
	}
	for name := range m.Initializers {
		if prev, dup := produced[name]; dup {
			return fmt.Errorf("graph %q: initializer %q collides with %s", m.Name, name, prev)
		}
		produced[name] = "initializer"
	}
	for _, n := range m.Nodes {
		for _, o := range n.Outputs {
			if prev, dup := produced[o]; dup {
				return fmt.Errorf("graph %q: tensor %q produced by both %s and node %q", m.Name, o, prev, n.Name)
			}
			produced[o] = fmt.Sprintf("node %q", n.Name)
		}
	}
	for _, n := range m.Nodes {
		schema, ok := LookupSchema(n.OpType)
		if !ok {
			return fmt.Errorf("graph %q: node %q has unknown op type %q", m.Name, n.Name, n.OpType)
		}
		if len(n.Inputs) < schema.MinInputs || (schema.MaxInputs >= 0 && len(n.Inputs) > schema.MaxInputs) {
			return fmt.Errorf("graph %q: node %q (%s) has %d inputs, schema allows [%d,%d]",
				m.Name, n.Name, n.OpType, len(n.Inputs), schema.MinInputs, schema.MaxInputs)
		}
		if schema.NumOutputs >= 0 && len(n.Outputs) != schema.NumOutputs {
			return fmt.Errorf("graph %q: node %q (%s) has %d outputs, schema requires %d",
				m.Name, n.Name, n.OpType, len(n.Outputs), schema.NumOutputs)
		}
		for _, in := range n.Inputs {
			if in == "" {
				continue // optional input placeholder
			}
			if _, ok := produced[in]; !ok {
				return fmt.Errorf("graph %q: node %q reads undefined tensor %q", m.Name, n.Name, in)
			}
		}
	}
	for _, o := range m.Outputs {
		if _, ok := produced[o]; !ok {
			return fmt.Errorf("graph %q: declared output %q is never produced", m.Name, o)
		}
	}
	if _, err := m.TopoSort(); err != nil {
		return err
	}
	return nil
}
