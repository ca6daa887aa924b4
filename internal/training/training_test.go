package training

import (
	"context"
	"testing"
	"testing/quick"

	"deep500/internal/executor"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

func mlpExec(t *testing.T, seed uint64) *executor.Executor {
	t.Helper()
	m := models.MLP(models.Config{
		Classes: 4, Channels: 1, Height: 4, Width: 4, WithHead: true, Seed: seed,
	}, 32)
	e, err := executor.New(m)
	if err != nil {
		t.Fatal(err)
	}
	e.SetTraining(true)
	return e
}

func synthSamplers(batch int) (*IndexSampler, *IndexSampler) {
	train, test := SyntheticSplit(256, 64, 4, []int{1, 4, 4}, 0.3, 11)
	return NewShuffleSampler(train, batch, 1), NewSequentialSampler(test, batch)
}

func TestInMemoryDataset(t *testing.T) {
	ds := NewInMemoryDataset([]float32{1, 2, 3, 4, 5, 6}, []int{0, 1}, []int{3})
	if ds.Len() != 2 {
		t.Fatal("len")
	}
	buf := make([]float32, 3)
	if l := ds.Read(1, buf); l != 1 || buf[0] != 4 {
		t.Fatalf("read: label=%d buf=%v", l, buf)
	}
}

func TestSequentialSamplerCoversDataset(t *testing.T) {
	ds := SyntheticClassification(10, 2, []int{2}, 0.1, 1)
	s := NewSequentialSampler(ds, 4)
	var total int
	for b := s.Next(); b != nil; b = s.Next() {
		total += b.Size()
	}
	if total != 10 {
		t.Fatalf("covered %d of 10 (last partial batch must be included)", total)
	}
	s.Reset()
	if b := s.Next(); b == nil || b.Size() != 4 {
		t.Fatal("reset failed")
	}
}

func TestShuffleSamplerShuffles(t *testing.T) {
	ds := SyntheticClassification(64, 4, []int{1}, 0, 2)
	s := NewShuffleSampler(ds, 64, 3)
	b1 := s.Next()
	s.Reset()
	b2 := s.Next()
	diff := false
	for i := range b1.Labels.Data() {
		if b1.Labels.Data()[i] != b2.Labels.Data()[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("two epochs produced identical order")
	}
}

func TestShuffleSamplerDropsLastPartial(t *testing.T) {
	ds := SyntheticClassification(10, 2, []int{1}, 0, 3)
	s := NewShuffleSampler(ds, 4, 1)
	var batches int
	for b := s.Next(); b != nil; b = s.Next() {
		if b.Size() != 4 {
			t.Fatalf("partial batch of %d", b.Size())
		}
		batches++
	}
	if batches != 2 {
		t.Fatalf("batches = %d", batches)
	}
}

// optimizersConverge verifies a three-step optimizer reaches high accuracy
// on an easy synthetic task.
func optimizerConverges(t *testing.T, name string, ts ThreeStep, epochs int) {
	t.Helper()
	e := mlpExec(t, 5)
	train, test := synthSamplers(32)
	r := NewRunner(NewDriver(e, ts), train, test)
	if err := r.RunEpochs(context.Background(), epochs); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if acc := r.TestAcc.Last(); acc < 0.9 {
		t.Fatalf("%s: test accuracy %v < 0.9", name, acc)
	}
}

func TestGradientDescentConverges(t *testing.T) {
	optimizerConverges(t, "sgd", NewGradientDescent(0.1), 5)
}
func TestMomentumConverges(t *testing.T) {
	optimizerConverges(t, "momentum", NewMomentum(0.05, 0.9), 5)
}
func TestNesterovConverges(t *testing.T) {
	optimizerConverges(t, "nesterov", NewNesterov(0.05, 0.9), 5)
}
func TestAdaGradConverges(t *testing.T) { optimizerConverges(t, "adagrad", NewAdaGrad(0.05), 5) }
func TestRMSPropConverges(t *testing.T) { optimizerConverges(t, "rmsprop", NewRMSProp(0.005, 0.9), 5) }
func TestAdamConverges(t *testing.T)    { optimizerConverges(t, "adam", NewAdam(0.005), 5) }
func TestAcceleGradConverges(t *testing.T) {
	optimizerConverges(t, "accelegrad", NewAcceleGrad(0.05, 1, 1), 6)
}
func TestFusedAdamConverges(t *testing.T) {
	optimizerConverges(t, "fused-adam", NewFusedAdam(0.005), 5)
}
func TestFusedSGDConverges(t *testing.T) {
	optimizerConverges(t, "fused-sgd", NewFusedSGD(0.1), 5)
}
func TestFusedMomentumConverges(t *testing.T) {
	optimizerConverges(t, "fused-momentum", NewFusedMomentum(0.05, 0.9), 5)
}

func TestAdamVariantsDiverge(t *testing.T) {
	// The two Adam formulations must drift apart over iterations (Fig. 11).
	e1 := mlpExec(t, 21)
	e2 := mlpExec(t, 21)
	train, _ := synthSamplers(16)
	d1 := NewDriver(e1, NewAdamVariant(0.01, AdamReference))
	d2 := NewDriver(e2, NewAdamVariant(0.01, AdamEpsInside))
	var firstDiv, lastDiv float64
	for i := 0; i < 30; i++ {
		train.Reset()
		b := train.Next()
		if _, err := d1.Train(context.Background(), b.Feeds()); err != nil {
			t.Fatal(err)
		}
		if _, err := d2.Train(context.Background(), b.Feeds()); err != nil {
			t.Fatal(err)
		}
		var div float64
		for _, name := range e1.Network().Params() {
			p1, _ := e1.Network().FetchTensor(name)
			p2, _ := e2.Network().FetchTensor(name)
			div += tensor.Compare(p2, p1).L2
		}
		if i == 0 {
			firstDiv = div
		}
		lastDiv = div
	}
	if lastDiv <= firstDiv {
		t.Fatalf("divergence did not grow: first %g last %g", firstDiv, lastDiv)
	}
}

func TestSchedules(t *testing.T) {
	c := ConstantLR(0.1)
	if c(0) != 0.1 || c(1000) != 0.1 {
		t.Fatal("constant")
	}
}

func TestRunnerMetricspopulated(t *testing.T) {
	e := mlpExec(t, 30)
	train, test := synthSamplers(32)
	r := NewRunner(NewDriver(e, NewGradientDescent(0.1)), train, test)
	r.TTA = metrics.NewTimeToAccuracy(0.5)
	r.TTA.Start()
	var steps, epochs int
	r.AfterStep = func(step int, loss, acc float64) { steps++ }
	r.AfterEpoch = func(epoch int, testAcc float64) { epochs++ }
	if err := r.RunEpochs(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if steps == 0 || epochs != 2 {
		t.Fatalf("hooks: steps=%d epochs=%d", steps, epochs)
	}
	if len(r.LossCurve.Points()) != steps {
		t.Fatal("loss curve incomplete")
	}
	if len(r.TestAcc.Points()) != 2 {
		t.Fatal("test accuracy cadence wrong")
	}
	if ok, _ := r.TTA.Reached(); !ok {
		t.Fatal("TTA 0.5 not reached on easy task")
	}
	first := r.LossCurve.Points()[0].Value
	last := r.LossCurve.Last()
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// TestGradHookRuns: Train calls the gradient hook once per step, over the
// whole gradient slab, and a hook that returns nil fails the step before
// any parameter changes or Step advances.
func TestGradHookRuns(t *testing.T) {
	e := mlpExec(t, 31)
	train, _ := synthSamplers(16)
	d := NewDriver(e, NewGradientDescent(0.1))
	net := e.Network()
	var hooked int
	d.GradHook = func(name string, g *tensor.Tensor) *tensor.Tensor {
		hooked++
		if g != net.GradSlab() || g.Size() != net.ParamSlab().Size() {
			t.Errorf("hook got %d values, not the %d-value gradient slab", g.Size(), net.ParamSlab().Size())
		}
		return g
	}
	for step := 1; step <= 2; step++ {
		if _, err := d.Train(context.Background(), train.Next().Feeds()); err != nil {
			t.Fatal(err)
		}
		if hooked != step {
			t.Fatalf("hook ran %d times in %d steps", hooked, step)
		}
	}

	before := net.ParamSlab().Clone()
	d.GradHook = func(string, *tensor.Tensor) *tensor.Tensor { return nil }
	if _, err := d.Train(context.Background(), train.Next().Feeds()); err == nil {
		t.Fatal("Train succeeded with a hook that returned nil")
	}
	if !tensor.AllClose(net.ParamSlab(), before, 0, 0) || d.Step != 2 {
		t.Fatalf("a failed step changed the parameters or advanced Step to %d", d.Step)
	}
}

func TestEvaluateUsesInferenceMode(t *testing.T) {
	// Evaluate must not change parameters.
	e := mlpExec(t, 32)
	train, test := synthSamplers(16)
	r := NewRunner(NewDriver(e, NewGradientDescent(0.1)), train, test)
	before, _ := e.Network().FetchTensor(e.Network().Params()[0])
	snapshot := before.Clone()
	r.Evaluate(context.Background(), test)
	after, _ := e.Network().FetchTensor(e.Network().Params()[0])
	if !tensor.AllClose(after, snapshot, 0, 0) {
		t.Fatal("evaluation mutated parameters")
	}
}

func TestPropSamplerPartition(t *testing.T) {
	// Property: a sequential pass visits each index exactly once regardless
	// of batch size.
	f := func(seed uint16) bool {
		rng := tensor.NewRNG(uint64(seed))
		n := rng.Intn(50) + 1
		batch := rng.Intn(16) + 1
		ds := SyntheticClassification(n, 3, []int{1}, 0, uint64(seed))
		s := NewSequentialSampler(ds, batch)
		var total int
		for b := s.Next(); b != nil; b = s.Next() {
			total += b.Size()
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticDatasetLearnable(t *testing.T) {
	// Sanity: classes are separable — nearest-prototype distance check.
	ds := SyntheticClassification(40, 4, []int{8}, 0.1, 99)
	buf1 := make([]float32, 8)
	buf2 := make([]float32, 8)
	l1 := ds.Read(0, buf1) // class 0
	l2 := ds.Read(4, buf2) // class 0 again (i%4)
	if l1 != l2 {
		t.Fatal("labels not cyclic")
	}
	var same float64
	for i := range buf1 {
		d := float64(buf1[i] - buf2[i])
		same += d * d
	}
	ds.Read(1, buf2) // class 1
	var diff float64
	for i := range buf1 {
		d := float64(buf1[i] - buf2[i])
		diff += d * d
	}
	if same >= diff {
		t.Fatalf("intra-class distance %v ≥ inter-class %v", same, diff)
	}
}
