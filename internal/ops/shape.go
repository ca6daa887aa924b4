package ops

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// AddOp computes elementwise a + b (same shape).
type AddOp struct{ base }

// NewAdd returns an elementwise addition operator.
func NewAdd() *AddOp { return &AddOp{base{name: "Add"}} }

func (o *AddOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	a, b, dst := inputs[0].Data(), inputs[1].Data(), out.Data()
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
	return o.out1(out)
}

func (o *AddOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0]
	return o.grads(o.gradCopy(0, g, g.Shape()), o.gradCopy(1, g, g.Shape()))
}

func (o *AddOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// SubOp computes elementwise a - b.
type SubOp struct{ base }

// NewSub returns an elementwise subtraction operator.
func NewSub() *SubOp { return &SubOp{base{name: "Sub"}} }

func (o *SubOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	a, b, dst := inputs[0].Data(), inputs[1].Data(), out.Data()
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return o.out1(out)
}

func (o *SubOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0]
	neg := o.fullGrad(1, g.Shape()...)
	for i, v := range g.Data() {
		neg.Data()[i] = -v
	}
	return o.grads(o.gradCopy(0, g, g.Shape()), neg)
}

func (o *SubOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// MulOp computes the elementwise (Hadamard) product.
type MulOp struct{ base }

// NewMul returns an elementwise multiplication operator.
func NewMul() *MulOp { return &MulOp{base{name: "Mul"}} }

func (o *MulOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	a, b, dst := inputs[0].Data(), inputs[1].Data(), out.Data()
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
	return o.out1(out)
}

func (o *MulOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0].Data()
	a, b := fwdInputs[0].Data(), fwdInputs[1].Data()
	gradA := o.fullGrad(0, fwdInputs[0].Shape()...)
	gradB := o.fullGrad(1, fwdInputs[1].Shape()...)
	for i := range g {
		gradA.Data()[i] = g[i] * b[i]
		gradB.Data()[i] = g[i] * a[i]
	}
	return o.grads(gradA, gradB)
}

func (o *MulOp) FLOPs(inputs []*tensor.Tensor) int64 { return elementwiseFLOPs(inputs) }

// SumOp adds any number of same-shape inputs.
type SumOp struct{ base }

// NewSum returns a variadic addition operator.
func NewSum() *SumOp { return &SumOp{base{name: "Sum"}} }

func (o *SumOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	copy(out.Data(), inputs[0].Data())
	for _, x := range inputs[1:] {
		out.AddInPlace(x)
	}
	return o.out1(out)
}

func (o *SumOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0]
	o.gradOut = o.gradOut[:0]
	for i := range fwdInputs {
		o.gradOut = append(o.gradOut, o.gradCopy(i, g, g.Shape()))
	}
	return o.gradOut
}

func (o *SumOp) FLOPs(inputs []*tensor.Tensor) int64 {
	return int64(len(inputs)) * elementwiseFLOPs(inputs)
}

// IdentityOp copies its input.
type IdentityOp struct{ base }

// NewIdentity returns the identity operator.
func NewIdentity() *IdentityOp { return &IdentityOp{base{name: "Identity"}} }

func (o *IdentityOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(inputs[0].Shape()...)
	copy(out.Data(), inputs[0].Data())
	return o.out1(out)
}

func (o *IdentityOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	return o.grads(o.gradCopy(0, gradOutputs[0], fwdInputs[0].Shape()))
}

func (o *IdentityOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// ConstantOp emits a fixed tensor and takes no inputs.
type ConstantOp struct {
	base
	Value *tensor.Tensor
}

// NewConstant returns an operator producing a copy of v.
func NewConstant(v *tensor.Tensor) *ConstantOp { return &ConstantOp{base{name: "Constant"}, v} }

func (o *ConstantOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	out := o.newOut(o.Value.Shape()...)
	copy(out.Data(), o.Value.Data())
	return o.out1(out)
}

func (o *ConstantOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	return nil
}

func (o *ConstantOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// FlattenOp reshapes [d0, d1, ...] to [prod(:axis), prod(axis:)].
type FlattenOp struct {
	base
	Axis int
}

// NewFlatten returns a flatten operator around the given axis.
func NewFlatten(axis int) *FlattenOp { return &FlattenOp{base{name: "Flatten"}, axis} }

func (o *FlattenOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	a, b := 1, 1
	for i, d := range x.Shape() {
		if i < o.Axis {
			a *= d
		} else {
			b *= d
		}
	}
	out := o.newOut(o.outShape(a, b)...)
	copy(out.Data(), x.Data())
	return o.out1(out)
}

func (o *FlattenOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	return o.grads(o.gradCopy(0, gradOutputs[0], fwdInputs[0].Shape()))
}

func (o *FlattenOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// ReshapeOp reshapes to a target shape (one dim may be -1).
type ReshapeOp struct {
	base
	Shape []int
	// resolved caches the -1-free target shape across Forward calls.
	resolved []int
}

// NewReshape returns a reshape operator.
func NewReshape(shape []int) *ReshapeOp {
	return &ReshapeOp{base: base{name: "Reshape"}, Shape: append([]int(nil), shape...)}
}

// resolve fills o.resolved with o.Shape, inferring a single -1 dimension
// from the input size.
func (o *ReshapeOp) resolve(size int) []int {
	if o.resolved == nil {
		o.resolved = make([]int, len(o.Shape))
	}
	known, infer := 1, -1
	for i, d := range o.Shape {
		o.resolved[i] = d
		if d == -1 {
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		o.resolved[infer] = size / known
	}
	return o.resolved
}

func (o *ReshapeOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	x := inputs[0]
	out := o.newOut(o.resolve(x.Size())...)
	copy(out.Data(), x.Data())
	return o.out1(out)
}

func (o *ReshapeOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	return o.grads(o.gradCopy(0, gradOutputs[0], fwdInputs[0].Shape()))
}

func (o *ReshapeOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// ConcatOp concatenates inputs along Axis. The current implementation
// supports axis 0 (the batch axis), which is what the micro-batching
// transformation requires.
type ConcatOp struct {
	base
	Axis int
}

// NewConcat returns a concatenation operator.
func NewConcat(axis int) *ConcatOp { return &ConcatOp{base{name: "Concat"}, axis} }

func (o *ConcatOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	if o.Axis != 0 {
		panic(fmt.Sprintf("ops: Concat supports axis 0, got %d", o.Axis))
	}
	total := 0
	for _, x := range inputs {
		total += x.Dim(0)
	}
	rest := append([]int(nil), inputs[0].Shape()[1:]...)
	outShape := append([]int{total}, rest...)
	out := o.newOut(outShape...)
	off := 0
	for _, x := range inputs {
		copy(out.Data()[off:], x.Data())
		off += x.Size()
	}
	return o.out1(out)
}

func (o *ConcatOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	g := gradOutputs[0]
	o.gradOut = o.gradOut[:0]
	off := 0
	for i, x := range fwdInputs {
		gi := o.fullGrad(i, x.Shape()...)
		copy(gi.Data(), g.Data()[off:off+x.Size()])
		o.gradOut = append(o.gradOut, gi)
		off += x.Size()
	}
	return o.gradOut
}

func (o *ConcatOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

// SplitOp splits its input along Axis into len(Sizes) parts. Axis 0 only.
type SplitOp struct {
	base
	Axis  int
	Sizes []int
}

// NewSplit returns a split operator with the given part sizes.
func NewSplit(axis int, sizes []int) *SplitOp {
	return &SplitOp{base{name: "Split"}, axis, append([]int(nil), sizes...)}
}

func (o *SplitOp) Forward(inputs []*tensor.Tensor) []*tensor.Tensor {
	if o.Axis != 0 {
		panic(fmt.Sprintf("ops: Split supports axis 0, got %d", o.Axis))
	}
	x := inputs[0]
	rest := append([]int(nil), x.Shape()[1:]...)
	rowSize := 1
	for _, d := range rest {
		rowSize *= d
	}
	outs := make([]*tensor.Tensor, len(o.Sizes))
	off := 0
	for i, sz := range o.Sizes {
		shape := append([]int{sz}, rest...)
		t := o.newOut(shape...)
		copy(t.Data(), x.Data()[off*rowSize:(off+sz)*rowSize])
		outs[i] = t
		off += sz
	}
	return outs
}

func (o *SplitOp) Backward(gradOutputs, fwdInputs, fwdOutputs []*tensor.Tensor) []*tensor.Tensor {
	gradIn := o.gradBuf(0, fwdInputs[0].Shape()...)
	off := 0
	for _, g := range gradOutputs {
		copy(gradIn.Data()[off:], g.Data())
		off += g.Size()
	}
	return o.grads(gradIn)
}

func (o *SplitOp) FLOPs(inputs []*tensor.Tensor) int64 { return 0 }

func intsOf(v []int64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func init() {
	Register("Add", func(n *graph.Node) (Operator, error) { return NewAdd(), nil })
	Register("Sub", func(n *graph.Node) (Operator, error) { return NewSub(), nil })
	Register("Mul", func(n *graph.Node) (Operator, error) { return NewMul(), nil })
	Register("Sum", func(n *graph.Node) (Operator, error) { return NewSum(), nil })
	Register("Identity", func(n *graph.Node) (Operator, error) { return NewIdentity(), nil })
	Register("Constant", func(n *graph.Node) (Operator, error) {
		a, ok := n.Attr("value")
		if !ok || a.T == nil {
			return nil, fmt.Errorf("ops: Constant node %q missing value tensor", n.Name)
		}
		return NewConstant(a.T), nil
	})
	Register("Flatten", func(n *graph.Node) (Operator, error) {
		return NewFlatten(int(n.AttrInt("axis", 1))), nil
	})
	Register("Reshape", func(n *graph.Node) (Operator, error) {
		shape := n.AttrInts("shape", nil)
		if shape == nil {
			return nil, fmt.Errorf("ops: Reshape node %q missing shape", n.Name)
		}
		return NewReshape(intsOf(shape)), nil
	})
	Register("Concat", func(n *graph.Node) (Operator, error) {
		return NewConcat(int(n.AttrInt("axis", 0))), nil
	})
	Register("Split", func(n *graph.Node) (Operator, error) {
		sizes := n.AttrInts("split", nil)
		if sizes == nil {
			return nil, fmt.Errorf("ops: Split node %q missing split sizes", n.Name)
		}
		return NewSplit(int(n.AttrInt("axis", 0)), intsOf(sizes)), nil
	})
}
