package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"deep500/d500"
)

// trainWorkload is either training workload: world ranks, each a d500
// session with a Trainer, in one process. With world > 1 the ranks train
// DSGD over a loopback TCP world and rank 0 is the one timed and traced.
type trainWorkload struct {
	cfg         runConfig
	world       int
	batch       int // per rank
	warmupSteps int
	build       func(seed uint64) *Model
	rule        func() d500.ThreeStep

	data *dataset

	// rec is the recorder of the current traced segment and stepID the open
	// train.step span; only rank 0's goroutine touches them.
	rec    *recorder
	stepID int64
	steps  int64
	tally  passTally
	// rank 0's transport counters over the traced windows of this instance
	sentBytes, sentFrames int64

	// the instance under test
	net       *tcpWorld
	ranks     []*trainRank
	firstLoss float64
	losses    []float64 // rank 0, every step since set-up
}

type trainRank struct {
	sess    *d500.Session
	sampler d500.Sampler
	trainer *d500.Trainer
}

const datasetSize = 4096

func newTrainLeNet(cfg runConfig) workload {
	return &trainWorkload{cfg: cfg, world: 1, batch: 32, warmupSteps: 10,
		build: func(seed uint64) *Model { return buildLeNet(seed, true) },
		rule:  func() d500.ThreeStep { return d500.Momentum(0.02, 0.9) }}
}

func newTrainTCPMLP(cfg runConfig) workload {
	return &trainWorkload{cfg: cfg, world: 2, batch: 32, warmupSteps: 6,
		build: func(seed uint64) *Model { return buildMLP(seed, true, 512, 512) },
		rule:  func() d500.ThreeStep { return d500.SGD(0.05) }}
}

func (w *trainWorkload) samplesPerOp() int { return w.world * w.batch }

func (w *trainWorkload) prepare() error {
	w.data = genDataset(w.cfg.Seed, datasetSize)
	return nil
}

// timedSampler and timedRule are the wrappers of a traced run: they put a
// span around the sampler and the optimizer's update rule, which have no
// hook of their own.
type timedSampler struct {
	d500.Sampler
	w *trainWorkload
}

func (s timedSampler) Next() *d500.Batch {
	rec := s.w.rec
	if rec == nil {
		return s.Sampler.Next()
	}
	start := rec.now()
	b := s.Sampler.Next()
	rec.add(rec.newID(), s.w.stepID, s.w.steps, "training.sample", start, rec.now())
	return b
}

type timedRule struct {
	d500.ThreeStep
	w *trainWorkload
}

func (r timedRule) UpdateRule(grad, old *Tensor, name string) *Tensor {
	rec := r.w.rec
	if rec == nil {
		return r.ThreeStep.UpdateRule(grad, old, name)
	}
	start := rec.now()
	out := r.ThreeStep.UpdateRule(grad, old, name)
	rec.add(rec.newID(), r.w.stepID, r.w.steps, "training.update", start, rec.now())
	return out
}

// newRank builds one rank the way cmd/d500dist does: session, driver,
// optional DSGD wrapper, sampler, trainer. A traced rank also gets the
// benchmark's wrappers and hooks.
func (w *trainWorkload) newRank(id int, model *Model, traced bool) (*trainRank, error) {
	sess, err := d500.New(d500.WithSeed(w.cfg.Seed))
	if err != nil {
		return nil, err
	}
	if err := sess.Open(model); err != nil {
		return nil, err
	}
	rule := w.rule()
	if traced {
		rule = timedRule{rule, w}
	}
	driver, err := sess.NewDriver(rule)
	if err != nil {
		return nil, err
	}
	var opt d500.Optimizer = driver
	var sampler d500.Sampler
	if w.world > 1 {
		opt = w.net.dsgd(id, driver)
		sampler = shardSampler(w.data, w.batch, id, w.world, w.cfg.Seed+seedSampler)
	} else {
		sampler = d500.ShuffleSampler(w.data, w.batch, w.cfg.Seed+seedSampler)
	}
	if traced {
		sampler = timedSampler{sampler, w}
		if w.world > 1 {
			timeGradHook(driver, func(start, end time.Time) {
				if rec := w.rec; rec != nil {
					rec.add(rec.newID(), w.stepID, w.steps, "dist.allreduce", rec.at(start), rec.at(end))
				}
			})
		}
	}
	trainer, err := sess.NewTrainer(opt, sampler, nil)
	if err != nil {
		return nil, err
	}
	return &trainRank{sess: sess, sampler: sampler, trainer: trainer}, nil
}

func (w *trainWorkload) setup(traced bool) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	models := make([]*Model, w.world)
	for i := range models {
		models[i] = w.build(w.cfg.Seed) // same seed: every rank starts from the same weights
	}
	t1 := time.Now()
	if w.world > 1 {
		net, err := dialWorld(w.world)
		if err != nil {
			return st, err
		}
		w.net = net
		st.dial = time.Since(t1)
	}
	w.ranks = make([]*trainRank, w.world)
	for i := range w.ranks {
		r, err := w.newRank(i, models[i], traced && i == 0) // rank 0 is the one timed and traced
		if err != nil {
			return st, err
		}
		w.ranks[i] = r
	}
	t2 := time.Now()
	w.losses, w.tally, w.sentBytes, w.sentFrames = w.losses[:0], passTally{}, 0, 0 // a new instance counts from nothing
	done := 0
	_, attempted, failed, err := w.run(func() bool { done++; return done > w.warmupSteps })
	if err == nil && failed > 0 {
		err = fmt.Errorf("%d of %d warm-up steps failed", failed, attempted)
	}
	if err == nil {
		w.firstLoss = w.losses[0]
	}
	st.build, st.construct, st.warmup = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return st, err
}

func (w *trainWorkload) close() {
	if w.net != nil {
		w.net.close()
	}
	w.net, w.ranks = nil, nil
}

// step is one iteration as the benchmark drives it: draw a batch, then
// Trainer.Step.
func (r *trainRank) step() (float64, error) {
	b := r.sampler.Next()
	if b == nil {
		r.sampler.Reset()
		if b = r.sampler.Next(); b == nil {
			return 0, errors.New("sampler yields no batch after Reset")
		}
	}
	return r.trainer.Step(context.Background(), b)
}

func (w *trainWorkload) drive(deadline time.Time, rec *recorder) ([]float64, int, int, error) {
	if rec != nil {
		w.rec = rec
		defer func() { w.rec = nil }()
		err := observeSession(w.ranks[0].sess, w.tally.observer(func(backward bool, d time.Duration) {
			name := "executor.forward"
			if backward {
				name = "executor.backward"
			}
			end := rec.now()
			rec.add(rec.newID(), w.stepID, w.steps, name, end-int64(d), end)
		}))
		if err != nil {
			return nil, 0, 0, err
		}
		defer observeSession(w.ranks[0].sess, nil)
		if w.net != nil {
			// Rank 0's sends of a step are done when its step returns, so
			// the deltas divide exactly by the steps taken.
			bytes0, frames0 := w.net.sent(0)
			defer func() {
				bytes1, frames1 := w.net.sent(0)
				w.sentBytes, w.sentFrames = w.sentBytes+bytes1-bytes0, w.sentFrames+frames1-frames0
			}()
		}
	}
	return w.run(func() bool { return !time.Now().Before(deadline) })
}

// run steps every rank in lockstep until stop says so. Rank 0 leads: it
// hands each other rank one token per step, so that all ranks take the same
// number of steps and none is left waiting in an all-reduce.
func (w *trainWorkload) run(stop func() bool) (stepMS []float64, attempted, failed int, err error) {
	followers := w.ranks[1:]
	tokens := make([]chan struct{}, len(followers))
	exited := make(chan error, len(followers))
	for i, r := range followers {
		tokens[i] = make(chan struct{})
		go func(r *trainRank, tokens <-chan struct{}) {
			exited <- protect(func() error {
				for range tokens {
					if _, err := r.step(); err != nil {
						return err
					}
				}
				return nil
			})
		}(r, tokens[i])
	}
	waitFor := len(followers)
	err = protect(func() error {
		for !stop() {
			for _, t := range tokens {
				select {
				case t <- struct{}{}:
				case e := <-exited:
					waitFor--
					return fmt.Errorf("a follower rank stopped early: %v", e)
				}
			}
			w.steps++
			if w.rec != nil {
				w.stepID = w.rec.newID()
			}
			start := time.Now()
			loss, err := w.ranks[0].step()
			end := time.Now()
			if err != nil {
				return err
			}
			if w.rec != nil {
				w.rec.add(w.stepID, 0, w.steps, "train.step", w.rec.at(start), w.rec.at(end))
			}
			attempted++
			w.losses = append(w.losses, loss)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				failed++
				continue
			}
			stepMS = append(stepMS, end.Sub(start).Seconds()*1e3)
		}
		return nil
	})
	for _, t := range tokens {
		close(t)
	}
	if err != nil && w.net != nil {
		w.net.close() // frees a follower blocked in an all-reduce the leader left
	}
	for ; waitFor > 0; waitFor-- {
		if e := <-exited; e != nil && err == nil {
			err = e
		}
	}
	return stepMS, attempted, failed, err
}

// lossAtEnd is the mean loss of the last ten steps.
func (w *trainWorkload) lossAtEnd() float64 {
	return mean(w.losses[max(0, len(w.losses)-10):])
}

// verify: training learned (the loss halved at least) and, under DSGD, all
// ranks hold bitwise-equal parameters.
func (w *trainWorkload) verify() error {
	if end := w.lossAtEnd(); !(end < 0.5*w.firstLoss) {
		return fmt.Errorf("loss at end %g is not below half the first step's %g", end, w.firstLoss)
	}
	lead, err := liveParams(w.ranks[0].sess)
	if err != nil {
		return err
	}
	for i, r := range w.ranks[1:] {
		other, err := liveParams(r.sess)
		if err != nil {
			return err
		}
		if len(other) != len(lead) {
			return fmt.Errorf("rank %d holds %d parameters, rank 0 %d", i+1, len(other), len(lead))
		}
		for j := range lead {
			if math.Float32bits(lead[j]) != math.Float32bits(other[j]) {
				return fmt.Errorf("rank %d parameter %d = %g differs from rank 0's %g", i+1, j, other[j], lead[j])
			}
		}
	}
	return nil
}

func (w *trainWorkload) layers(base, traced segment, rec *recorder, probe *hostProbe, out map[string]float64) ([]string, error) {
	slowdown := traced.slowdown()
	st := summarize(rec.spans, 1/slowdown)
	steps := float64(len(st.dur["train.step"]))
	if steps == 0 {
		return nil, errors.New("no train.step span in the traced segment")
	}
	perStepMS := func(samples []float64) float64 {
		var sum float64
		for _, v := range samples {
			sum += v
		}
		return sum / steps / 1e6
	}
	stepMS := perStepMS(st.dur["train.step"])
	out["training.sample_ms_per_step"] = perStepMS(st.dur["training.sample"])
	out["training.update_ms_per_step"] = perStepMS(st.dur["training.update"])
	out["training.step_self_ms"] = perStepMS(st.self["train.step"])
	out["training.steps"] = steps
	out["training.loss_at_end"] = w.lossAtEnd()
	w.tally.fill(out, int(steps), slowdown)

	flops, err := flopsPerRow(w.ranks[0].sess.Model())
	if err != nil {
		return nil, err
	}
	out["kernels.flops_per_row"] = float64(flops)
	// A training step costs about three forward passes: the forward one and
	// two products per layer going back.
	out["kernels.gflop_per_s"] = 3 * float64(flops) * base.opsPerS() * float64(w.samplesPerOp()) / 1e9

	var findings []string
	if self := out["training.step_self_ms"]; self > 0.1*stepMS {
		findings = append(findings, fmt.Sprintf("step budget does not add up: %.2f ms of a %.2f ms step is in no measured layer", self, stepMS))
	}
	if w.world == 1 {
		return findings, nil
	}
	out["dist.allreduce_ms_per_step"] = perStepMS(st.dur["dist.allreduce"])
	out["dist.allreduce_calls_per_step"] = float64(len(st.dur["dist.allreduce"])) / steps
	out["dist.comm_frac"] = out["dist.allreduce_ms_per_step"] / stepMS
	out["transport.sent_bytes_per_step"] = float64(w.sentBytes) / steps
	out["transport.frames_per_step"] = float64(w.sentFrames) / steps
	out["transport.wire_mb_per_s"] = float64(w.sentBytes) / 1e6 / traced.refBusy.Seconds()
	return findings, w.reference(base, probe, out)
}

// reference is the plain single-worker baseline of the same task: one rank,
// no transport, the world's global batch.
func (w *trainWorkload) reference(base segment, probe *hostProbe, out map[string]float64) error {
	const warm, steps = 3, 40
	ref := &trainWorkload{cfg: runConfig{Seed: w.cfg.Seed}, world: 1, batch: w.batch * w.world, build: w.build, rule: w.rule, data: w.data}
	r, err := ref.newRank(0, ref.build(ref.cfg.Seed), false)
	if err != nil {
		return err
	}
	ref.ranks = []*trainRank{r}
	s0, err := probe.slowdown()
	if err != nil {
		return err
	}
	done := 0
	taken, _, failed, err := ref.run(func() bool { done++; return done > warm+steps })
	if err != nil || failed > 0 {
		return fmt.Errorf("%d failed reference steps: %v", failed, err)
	}
	s1, err := probe.slowdown()
	if err != nil {
		return err
	}
	out["dist.step_ratio_vs_ref"] = median(base.refOpMS) / (median(taken[warm:]) / ((s0 + s1) / 2))
	return nil
}

// passTally sums what executor.Events report over passes: pass and operator
// time by direction and kernel kind.
type passTally struct {
	pass    [2]time.Duration    // forward, backward
	kernel  [2][3]time.Duration // conv, gemm, other
	forward int                 // operators run forward
}

var kernelKinds = [3]string{"conv", "gemm", "other"}

func dir(backward bool) int {
	if backward {
		return 1
	}
	return 0
}

// observer returns the passObserver feeding the tally; onPass, if not nil,
// also hears of every pass.
func (t *passTally) observer(onPass func(backward bool, d time.Duration)) *passObserver {
	return &passObserver{
		pass: func(backward bool, d time.Duration) {
			t.pass[dir(backward)] += d
			if onPass != nil {
				onPass(backward, d)
			}
		},
		op: func(opType string, backward bool, d time.Duration) {
			kind := 2
			switch opType {
			case "Conv":
				kind = 0
			case "Gemm":
				kind = 1
			}
			t.kernel[dir(backward)][kind] += d
			if !backward {
				t.forward++
			}
		},
	}
}

// fill writes the executor.* and kernels.*_ms metrics as means per pass, on
// a host that was slowdown times slower than the reference.
func (t *passTally) fill(out map[string]float64, passes int, slowdown float64) {
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(passes) / slowdown }
	out["executor.forward_ms"] = ms(t.pass[0])
	out["executor.backward_ms"] = ms(t.pass[1])
	var ops time.Duration
	for d, suffix := range [2]string{"_fwd_ms", "_bwd_ms"} {
		for k, kind := range kernelKinds {
			out["kernels."+kind+suffix] = ms(t.kernel[d][k])
			ops += t.kernel[d][k]
		}
	}
	if total := t.pass[0] + t.pass[1]; total > 0 {
		out["executor.dispatch_self_frac"] = float64(total-ops) / float64(total)
	}
	out["executor.nodes_per_pass"] = float64(t.forward) / float64(passes)
}
