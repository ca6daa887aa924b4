package main

// Every import of deep500/internal/... lives in this file, behind the small
// adapters below, so that a change reshaping an internal API can see here
// (and in README.md, "Pinned signatures") exactly what it would break. The
// rest of the benchmark uses the d500 facade, the HTTP wire protocol and
// these adapters.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"deep500/d500"
	"deep500/internal/dist"
	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/models"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/transport"
)

// The d500 facade speaks these two internal types in its signatures.
type (
	Model  = graph.Model
	Tensor = tensor.Tensor
)

func tensorOf(data []float32, shape ...int) *Tensor { return tensor.From(data, shape...) }

func modelConfig(seed uint64, head bool) models.Config {
	return models.Config{Classes: numClasses, Channels: 1, Height: imageSide, Width: imageSide, Seed: seed, WithHead: head}
}

func buildLeNet(seed uint64, head bool) *Model { return models.LeNet(modelConfig(seed, head)) }

func buildMLP(seed uint64, head bool, hidden ...int) *Model {
	return models.MLP(modelConfig(seed, head), hidden...)
}

// initBytes serialises a model's initial parameters in name order.
func initBytes(m *Model) []byte {
	names := make([]string, 0, len(m.Initializers))
	for name := range m.Initializers {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []byte
	for _, name := range names {
		out = append(out, name...)
		for _, v := range m.Initializers[name].Data() {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	}
	return out
}

// liveParams flattens the current parameters of a session's network in
// name order.
func liveParams(sess *d500.Session) ([]float32, error) {
	net, err := sess.Network()
	if err != nil {
		return nil, err
	}
	var out []float32
	for _, name := range net.Params() {
		t, err := net.FetchTensor(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t.Data()...)
	}
	return out, nil
}

// flopsPerRow is the exact forward FLOP count of the model's Gemm and Conv
// nodes for one input row, from shape inference.
func flopsPerRow(m *Model) (int64, error) {
	shapes, err := m.InferShapes(1)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range m.Nodes {
		switch n.OpType {
		case "Gemm":
			x, y := shapes[n.Inputs[0]], shapes[n.Outputs[0]]
			if len(x) != 2 || len(y) != 2 {
				return 0, fmt.Errorf("node %q: Gemm over shapes %v -> %v", n.Name, x, y)
			}
			total += kernels.GemmFLOPs(x[0], x[1], y[1])
		case "Conv":
			x, w, y := shapes[n.Inputs[0]], shapes[n.Inputs[1]], shapes[n.Outputs[0]]
			strides := n.AttrInts("strides", []int64{1, 1})
			pads := n.AttrInts("pads", []int64{0, 0})
			cs := kernels.ConvShape{N: x[0], C: x[1], H: x[2], W: x[3], M: w[0], KH: w[2], KW: w[3],
				StrideH: int(strides[0]), StrideW: int(strides[1]), PadH: int(pads[0]), PadW: int(pads[1])}
			if oh, ow := cs.OutDims(); oh != y[2] || ow != y[3] {
				return 0, fmt.Errorf("node %q: conv output %dx%d disagrees with inferred %v", n.Name, oh, ow, y)
			}
			total += cs.FLOPs()
		}
	}
	return total, nil
}

// passObserver is what the benchmark takes from executor.Events: whole
// passes and single operators, by direction.
type passObserver struct {
	pass func(backward bool, d time.Duration)
	op   func(opType string, backward bool, d time.Duration)
}

func (o *passObserver) events() *executor.Events {
	if o == nil {
		return nil
	}
	return &executor.Events{
		AfterInference:  func(d time.Duration) { o.pass(false, d) },
		AfterBackprop:   func(d time.Duration) { o.pass(true, d) },
		AfterOp:         func(n *graph.Node, d time.Duration) { o.op(n.OpType, false, d) },
		AfterBackwardOp: func(n *graph.Node, d time.Duration) { o.op(n.OpType, true, d) },
	}
}

// observeSession installs o on the session's executor; nil removes it.
func observeSession(sess *d500.Session, o *passObserver) error {
	ge, err := sess.GraphExecutor()
	if err != nil {
		return err
	}
	e, ok := ge.(*executor.Executor)
	if !ok {
		return fmt.Errorf("session executor is %T, not the reference executor", ge)
	}
	e.Events = o.events()
	return nil
}

// newObservedExecutor is the benchmark-owned executor that replays serve
// batches under o: plain executor.New, default options.
func newObservedExecutor(m *Model, o *passObserver) (func(ctx context.Context, feeds map[string]*Tensor) error, error) {
	e, err := executor.New(m)
	if err != nil {
		return nil, err
	}
	e.Events = o.events()
	return func(ctx context.Context, feeds map[string]*Tensor) error {
		_, err := e.Inference(ctx, feeds)
		return err
	}, nil
}

// tcpWorld is a loopback transport world.
type tcpWorld struct{ ranks []*transport.TCPRank }

func dialWorld(n int) (*tcpWorld, error) {
	ranks, err := transport.NewLocalWorld(n, nil)
	if err != nil {
		return nil, err
	}
	return &tcpWorld{ranks: ranks}, nil
}

func (w *tcpWorld) close() {
	for _, r := range w.ranks {
		r.Close() // the world is being discarded; a close error changes nothing
	}
}

// sent returns rank's cumulative wire counters.
func (w *tcpWorld) sent(rank int) (bytes, frames int64) {
	st := w.ranks[rank].Stats()
	return st.SentBytes, st.SentFrames
}

// dsgd wraps the driver in ring-allreduce DSGD over rank. It installs the
// driver's GradHook.
func (w *tcpWorld) dsgd(rank int, d *d500.Driver) d500.Optimizer {
	return dist.NewConsistentDecentralized(d, w.ranks[rank], mpi.AllreduceRing)
}

func shardSampler(ds d500.Dataset, batch, worker, world int, seed uint64) d500.Sampler {
	return dist.NewDistributedSampler(ds, batch, worker, world, seed)
}

// protect turns a transport failure, which the fabric raises as a panic,
// into an error.
func protect(fn func() error) error { return transport.Protect(fn) }

// timeGradHook wraps the gradient hook the distributed optimizer installed,
// reporting each call's interval. This is how all-reduce is timed without
// implementing dist.Rank.
func timeGradHook(d *d500.Driver, observe func(start, end time.Time)) {
	inner := d.GradHook
	d.GradHook = func(name string, grad *Tensor) *Tensor {
		start := time.Now()
		out := inner(name, grad)
		observe(start, time.Now())
		return out
	}
}
