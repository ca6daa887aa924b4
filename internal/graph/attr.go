// Package graph implements D5NX, the portable DNN graph representation of
// Deep500-Go. It plays the role ONNX plays in the Deep500 paper (§II-D):
// a serializable DAG of operator nodes with typed attributes, a registry of
// standardized operator schemas with shape inference, and a visitor
// mechanism used to convert models into framework-specific networks
// (paper Fig. 4).
//
// Public entry points: Model (NewModel, AddNode/AddInput/AddOutput/
// AddInitializer, Validate, TopoSort, InferShapes),
// Node and the Attribute constructors (IntAttr, FloatAttr, StringAttr,
// IntsAttr), the schema registry (RegisterSchema, LookupSchema),
// serialization (Save/Load, Encode/Decode) and NewVisitor. Executors run a
// Model as built; internal/transform is the graph rewriter (micro-batching,
// paper Fig. 7).
package graph

import (
	"fmt"

	"deep500/internal/tensor"
)

// AttrType enumerates attribute value kinds, mirroring ONNX AttributeProto.
type AttrType int

const (
	AttrInt AttrType = iota
	AttrFloat
	AttrString
	AttrInts
	AttrFloats
	AttrTensor
)

func (t AttrType) String() string {
	switch t {
	case AttrInt:
		return "int"
	case AttrFloat:
		return "float"
	case AttrString:
		return "string"
	case AttrInts:
		return "ints"
	case AttrFloats:
		return "floats"
	case AttrTensor:
		return "tensor"
	}
	return "unknown"
}

// Attribute is a typed named constant attached to a node (kernel size,
// strides, epsilon, ...).
type Attribute struct {
	Name   string
	Type   AttrType
	I      int64
	F      float64
	S      string
	Ints   []int64
	Floats []float64
	T      *tensor.Tensor
}

// IntAttr, FloatAttr, StringAttr and IntsAttr are attribute constructors.
func IntAttr(name string, v int64) Attribute { return Attribute{Name: name, Type: AttrInt, I: v} }
func FloatAttr(name string, v float64) Attribute {
	return Attribute{Name: name, Type: AttrFloat, F: v}
}
func StringAttr(name, v string) Attribute { return Attribute{Name: name, Type: AttrString, S: v} }
func IntsAttr(name string, v ...int64) Attribute {
	return Attribute{Name: name, Type: AttrInts, Ints: v}
}

func (a Attribute) String() string {
	switch a.Type {
	case AttrInt:
		return fmt.Sprintf("%s=%d", a.Name, a.I)
	case AttrFloat:
		return fmt.Sprintf("%s=%g", a.Name, a.F)
	case AttrString:
		return fmt.Sprintf("%s=%q", a.Name, a.S)
	case AttrInts:
		return fmt.Sprintf("%s=%v", a.Name, a.Ints)
	case AttrFloats:
		return fmt.Sprintf("%s=%v", a.Name, a.Floats)
	case AttrTensor:
		return fmt.Sprintf("%s=%v", a.Name, a.T)
	}
	return a.Name
}
