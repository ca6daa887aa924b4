package training

import (
	"fmt"

	"deep500/internal/graph"
	"deep500/internal/tensor"
)

// Exact-resume support. Every fused optimizer, AcceleGrad, and through
// embedding every reference form, can flatten its state (step counters,
// momentum/variance slots) into an OptimizerState and restore it later, and
// both samplers can capture their epoch cursor, so a checkpoint taken
// mid-run restores a trajectory that is bitwise-equal to the uninterrupted
// one (paper pillar 5, "Reproducibility"). CaptureTrainState and
// RestoreTrainState are the one mapping between these and the checkpoint's
// graph.TrainState.

// OptimizerState is a flattened, serializable snapshot of an optimizer.
// Tensor keys are namespaced by slot ("vel/<param>", "m/<param>", ...), so
// one flat map carries any number of per-parameter slot families.
type OptimizerState struct {
	Ints    map[string]int64
	Floats  map[string]float64
	Tensors map[string]*tensor.Tensor
}

func newOptimizerState() OptimizerState {
	return OptimizerState{
		Ints:    make(map[string]int64),
		Floats:  make(map[string]float64),
		Tensors: make(map[string]*tensor.Tensor),
	}
}

// CheckpointableOptimizer is implemented by optimizers that support exact
// resume. CaptureState deep-copies tensor slots and RestoreState copies
// them back in, so a captured state is a value: it stays valid as training
// moves on, and one state can seed any number of optimizers.
type CheckpointableOptimizer interface {
	CaptureState() OptimizerState
	RestoreState(OptimizerState) error
}

// captureTensors clones a slot map into dst under prefix+"/"+name keys.
func captureTensors(dst map[string]*tensor.Tensor, prefix string, slots map[string]*tensor.Tensor) {
	for name, t := range slots {
		dst[prefix+"/"+name] = t.Clone()
	}
}

// restoreTensors rebuilds a slot map from prefix-matched entries of src.
func restoreTensors(src map[string]*tensor.Tensor, prefix string) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor)
	p := prefix + "/"
	for key, t := range src {
		if len(key) > len(p) && key[:len(p)] == p {
			out[key[len(p):]] = t.Clone()
		}
	}
	return out
}

// CaptureState snapshots the full AcceleGrad state: time step, α_t/τ_t,
// the y/z sequences, and the per-parameter squared-norm accumulators.
func (o *AcceleGrad) CaptureState() OptimizerState {
	s := newOptimizerState()
	s.Ints["t"] = int64(o.t)
	if o.init {
		s.Ints["init"] = 1
	}
	s.Floats["alphaT"] = float64(o.alphaT)
	s.Floats["tauT"] = float64(o.tauT)
	for name, sq := range o.squares {
		s.Floats["sq/"+name] = sq
	}
	captureTensors(s.Tensors, "y", o.y)
	captureTensors(s.Tensors, "z", o.z)
	return s
}

// RestoreState rewinds the AcceleGrad state.
func (o *AcceleGrad) RestoreState(s OptimizerState) error {
	o.t = int(s.Ints["t"])
	o.init = s.Ints["init"] != 0
	o.alphaT = float32(s.Floats["alphaT"])
	o.tauT = float32(s.Floats["tauT"])
	o.squares = make(map[string]float64)
	for key, v := range s.Floats {
		if len(key) > 3 && key[:3] == "sq/" {
			o.squares[key[3:]] = v
		}
	}
	o.y = restoreTensors(s.Tensors, "y")
	o.z = restoreTensors(s.Tensors, "z")
	return nil
}

// CaptureState snapshots the schedule step.
func (o *FusedSGD) CaptureState() OptimizerState {
	s := newOptimizerState()
	s.Ints["step"] = int64(o.step)
	return s
}

// RestoreState rewinds the schedule step.
func (o *FusedSGD) RestoreState(s OptimizerState) error {
	o.step = int(s.Ints["step"])
	return nil
}

// CaptureState snapshots the schedule step and velocity slots.
func (o *FusedMomentum) CaptureState() OptimizerState {
	s := newOptimizerState()
	s.Ints["step"] = int64(o.step)
	captureTensors(s.Tensors, "vel", o.vel)
	return s
}

// RestoreState rewinds the schedule step and velocity slots.
func (o *FusedMomentum) RestoreState(s OptimizerState) error {
	o.step = int(s.Ints["step"])
	o.vel = restoreTensors(s.Tensors, "vel")
	return nil
}

// CaptureState snapshots the time step and moment slots.
func (o *FusedAdam) CaptureState() OptimizerState {
	s := newOptimizerState()
	s.Ints["t"] = int64(o.t)
	captureTensors(s.Tensors, "m", o.m)
	captureTensors(s.Tensors, "v", o.v)
	return s
}

// RestoreState rewinds the time step and moment slots.
func (o *FusedAdam) RestoreState(s OptimizerState) error {
	o.t = int(s.Ints["t"])
	o.m = restoreTensors(s.Tensors, "m")
	o.v = restoreTensors(s.Tensors, "v")
	return nil
}

// CaptureState snapshots the moving-average accumulators.
func (o *FusedRMSProp) CaptureState() OptimizerState {
	s := newOptimizerState()
	captureTensors(s.Tensors, "sq", o.squares)
	return s
}

// RestoreState rewinds the moving-average accumulators.
func (o *FusedRMSProp) RestoreState(s OptimizerState) error {
	o.squares = restoreTensors(s.Tensors, "sq")
	return nil
}

// CaptureState snapshots the squared-gradient accumulators.
func (o *FusedAdaGrad) CaptureState() OptimizerState {
	s := newOptimizerState()
	captureTensors(s.Tensors, "sq", o.squares)
	return s
}

// RestoreState rewinds the squared-gradient accumulators.
func (o *FusedAdaGrad) RestoreState(s OptimizerState) error {
	o.squares = restoreTensors(s.Tensors, "sq")
	return nil
}

// SamplerState is the serializable epoch cursor of a sampler: the sample
// order of the in-flight epoch, the position of the next batch in it, and —
// for stochastic samplers — the shuffle RNG state.
type SamplerState struct {
	Order []int
	Pos   int
	RNG   *tensor.RNGState
}

// CheckpointableSampler is implemented by samplers that support exact
// resume of their epoch cursor.
type CheckpointableSampler interface {
	Sampler
	CaptureState() SamplerState
	RestoreState(SamplerState) error
}

// CaptureTrainState flattens a run's position into a checkpoint's training
// section: the step and epoch counters, the optimizer's slots and the
// sampler's cursor. co may be nil for a run that checkpoints no optimizer
// slots (a parameter-server worker: the server owns them).
func CaptureTrainState(step, epochsDone int, midEpoch bool, co CheckpointableOptimizer, cs CheckpointableSampler) *graph.TrainState {
	samp := cs.CaptureState()
	ts := &graph.TrainState{
		Step:         step,
		EpochsDone:   epochsDone,
		MidEpoch:     midEpoch,
		SamplerOrder: samp.Order,
		SamplerPos:   samp.Pos,
	}
	if co != nil {
		opt := co.CaptureState()
		ts.OptInts, ts.OptFloats, ts.OptTensors = opt.Ints, opt.Floats, opt.Tensors
	}
	if samp.RNG != nil {
		ts.HasSamplerRNG = true
		ts.SamplerRNG = *samp.RNG
	}
	return ts
}

// RestoreTrainState rewinds an optimizer (skipped when co is nil) and a
// sampler to a checkpoint's training section. The step and epoch counters
// are the caller's to apply (Runner.ResumeAt).
func RestoreTrainState(ts *graph.TrainState, co CheckpointableOptimizer, cs CheckpointableSampler) error {
	if co != nil {
		if err := co.RestoreState(OptimizerState{Ints: ts.OptInts, Floats: ts.OptFloats, Tensors: ts.OptTensors}); err != nil {
			return fmt.Errorf("training: restoring optimizer state: %w", err)
		}
	}
	st := SamplerState{Order: ts.SamplerOrder, Pos: ts.SamplerPos}
	if ts.HasSamplerRNG {
		rng := ts.SamplerRNG
		st.RNG = &rng
	}
	if err := cs.RestoreState(st); err != nil {
		return fmt.Errorf("training: restoring sampler state: %w", err)
	}
	return nil
}
