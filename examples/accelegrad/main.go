// Custom optimizer: the paper's AcceleGrad walkthrough (Listing 7).
//
// A user-defined optimizer is written against the novel three-step
// interface (new_input / prepare_param / update_rule) — implemented here
// against the public d500.ThreeStep type — and compared against the
// built-in optimizers on the same task, including a trajectory validation
// against the reference implementation (test_optimizer) and the
// accuracy-vs-time tradeoff the paper plots in Fig. 9.
//
// Run: go run ./examples/accelegrad
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"deep500/d500"
	"deep500/internal/models"
	"deep500/internal/tensor"
	"deep500/internal/validation"
)

// myAcceleGrad is a from-scratch reimplementation of Listing 7 — written
// here (rather than reusing d500.AcceleGrad) to show what a user
// implements: three small methods, algorithmic form intact.
type myAcceleGrad struct {
	lr, d, g, eps float32
	t             int
	alphaT, tauT  float32
	y, z          map[string]*tensor.Tensor
	squares       map[string]float64
}

func newMyAcceleGrad(lr float32) *myAcceleGrad {
	return &myAcceleGrad{lr: lr, d: 1, g: 1, eps: 1e-8,
		y: map[string]*tensor.Tensor{}, z: map[string]*tensor.Tensor{},
		squares: map[string]float64{}}
}

func (o *myAcceleGrad) NewInput() { // Listing 7: new_input
	o.t++
	if o.t <= 3 {
		o.alphaT = 1
	} else {
		o.alphaT = float32(o.t) / 4
	}
	o.tauT = 1 / o.alphaT
}

func (o *myAcceleGrad) PrepareParam(name string, param *tensor.Tensor) *tensor.Tensor { // prepare_param
	if _, ok := o.y[name]; !ok {
		o.y[name] = param.Clone()
		o.z[name] = param.Clone()
	}
	out := tensor.New(param.Shape()...)
	yd, zd := o.y[name].Data(), o.z[name].Data()
	for i := range out.Data() {
		out.Data()[i] = o.tauT*zd[i] + (1-o.tauT)*yd[i]
	}
	return out
}

func (o *myAcceleGrad) UpdateRule(grad, oldParam *tensor.Tensor, name string) *tensor.Tensor { // update_rule
	sq := o.squares[name]
	n := grad.Norm2()
	sq += float64(o.alphaT*o.alphaT) * n * n
	etaT := 2 * float64(o.d) / math.Sqrt(float64(o.g*o.g)+sq)
	zd, yd, gd, od := o.z[name].Data(), o.y[name].Data(), grad.Data(), oldParam.Data()
	for i := range zd {
		zd[i] -= o.alphaT * float32(etaT) * gd[i]
		yd[i] = od[i] - float32(etaT)*gd[i]
	}
	o.squares[name] = sq
	adjusted := o.lr / (o.eps + float32(math.Sqrt(sq)))
	out := oldParam.Clone()
	for i := range out.Data() {
		out.Data()[i] -= adjusted * gd[i]
	}
	return out
}

// compile-time check: the custom optimizer satisfies the public interface.
var _ d500.ThreeStep = (*myAcceleGrad)(nil)

func main() {
	ctx := context.Background()
	shape := []int{1, 8, 8}
	train, test := d500.SyntheticSplit(1024, 256, 4, shape, 0.25, 11)

	// mkSession opens a fresh session per optimizer so every run starts
	// from identical initialization.
	mkSession := func() *d500.Session {
		sess, err := d500.New(d500.WithSeed(5))
		if err != nil {
			log.Fatal(err)
		}
		m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 8, Width: 8,
			WithHead: true, Seed: 5}, 64)
		if err := sess.Open(m); err != nil {
			log.Fatal(err)
		}
		return sess
	}
	mkDriver := func(ts d500.ThreeStep) *d500.Driver {
		d, err := mkSession().NewDriver(ts)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	// Validate the custom optimizer's trajectory against the library's
	// reference AcceleGrad (test_optimizer, §IV-E).
	var batches []*d500.Batch
	s := d500.SequentialSampler(train, 32)
	for i := 0; i < 8; i++ {
		batches = append(batches, s.Next())
	}
	d1 := mkDriver(newMyAcceleGrad(0.02))
	d2 := mkDriver(d500.AcceleGrad(0.02, 1, 1))
	res, traj := validation.TestOptimizer(d1, d2, batches, 1e-4)
	fmt.Println(res)
	fmt.Printf("trajectory divergence after %d steps: l2=%.3g\n",
		len(traj), traj[len(traj)-1].L2)

	// Compare convergence and wallclock against the optimizer zoo.
	for _, c := range []struct {
		name string
		ts   d500.ThreeStep
	}{
		{"AcceleGrad (custom)", newMyAcceleGrad(0.02)},
		{"Adam", d500.Adam(0.002)},
		{"AdaGrad", d500.AdaGrad(0.02)},
	} {
		sess := mkSession()
		start := time.Now()
		res, err := sess.Train(ctx, d500.TrainConfig{
			Optimizer: c.ts,
			Train:     d500.ShuffleSampler(train, 32, 1),
			Test:      d500.SequentialSampler(test, 32),
			Epochs:    5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s final acc %.4f  time %v\n", c.name, res.FinalTestAccuracy, time.Since(start))
	}
}
