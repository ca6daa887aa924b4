// Command d500train trains a model-zoo network on a synthetic dataset with
// a chosen optimizer and backend, reporting the Level 2 metrics
// (training/test accuracy, loss curve, time-to-accuracy) — a runnable
// version of the paper's training-loop manager, driven entirely through
// the public d500 Session API. Ctrl-C cancels the run between steps.
//
// -ckpt enables exact-resume checkpointing (atomic background writes every
// epoch, or every -ckpt-every steps); -resume continues an interrupted run
// from such a checkpoint. Pass the original run's flags alongside -resume —
// the model comes from the checkpoint, but optimizer, sampler and seed are
// reconstructed from the command line. See docs/operations.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"deep500/d500"
	"deep500/internal/graph"
	"deep500/internal/models"
)

func main() {
	model := flag.String("model", "lenet", "model: mlp, lenet, resnet8, resnet18, wrn16")
	opt := flag.String("optimizer", "momentum", "optimizer: sgd, momentum, nesterov, adagrad, rmsprop, adam, accelegrad")
	backend := flag.String("backend", "reference", "framework backend: reference, tfgo, torchgo, cf2go")
	epochs := flag.Int("epochs", 5, "training epochs")
	batch := flag.Int("batch", 64, "minibatch size")
	lr := flag.Float64("lr", 0.02, "learning rate")
	samples := flag.Int("samples", 2048, "synthetic training samples")
	seed := flag.Uint64("seed", 42, "seed")
	target := flag.Float64("target", 0.9, "time-to-accuracy target")
	save := flag.String("save", "", "save the trained model as D5NX to this path")
	ckpt := flag.String("ckpt", "", "write exact-resume training checkpoints to this path")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint cadence in steps (0 = every epoch boundary)")
	resume := flag.String("resume", "", "resume training from this checkpoint (pass the original run's flags)")
	traceOn := flag.Bool("trace", false, "trace the run (step/epoch/per-op spans); retained traces print as trace lines")
	traceSlow := flag.Duration("trace-slow", 0, "tail-sample any run at least this slow (implies -trace; 0 = default 250ms)")
	flag.Parse()
	// A stray positional (e.g. "d500train -trace true", where boolean -trace
	// consumes no value and "true" stops flag parsing) would otherwise run
	// silently misconfigured with every later flag ignored.
	if flag.NArg() > 0 {
		fatalIf(fmt.Errorf("unexpected argument %q (boolean flags like -trace take no value)", flag.Arg(0)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := models.Config{Classes: 10, Channels: 3, Height: 16, Width: 16,
		WithHead: true, Seed: *seed, WidthScale: 0.5}
	if *model == "mlp" || *model == "lenet" {
		cfg.Channels, cfg.Height, cfg.Width = 1, 28, 28
		cfg.WidthScale = 1
	}
	var (
		m  *graph.Model
		cp *d500.Checkpoint
	)
	if *resume != "" {
		var err error
		cp, err = d500.Resume(*resume)
		fatalIf(err)
		m = cp.Model()
		fmt.Printf("resuming from %s (step %d, %d epoch(s) done)\n", *resume, cp.Step(), cp.EpochsDone())
	} else {
		var err error
		m, err = models.ByName(*model, cfg)
		fatalIf(err)
	}

	opts := []d500.Option{
		d500.WithFramework(*backend),
		d500.WithSeed(*seed),
		d500.WithHook(d500.ConsoleHook(os.Stdout)),
	}
	if *ckptEvery > 0 {
		opts = append(opts, d500.WithCheckpointEvery(*ckptEvery))
	}
	if *traceSlow > 0 {
		opts = append(opts, d500.WithTraceSlow(*traceSlow))
	} else if *traceOn {
		opts = append(opts, d500.WithTrace())
	}
	sess, err := d500.New(opts...)
	fatalIf(err)
	fatalIf(sess.Open(m))

	ts, err := d500.OptimizerByName(*opt, *lr)
	fatalIf(err)

	shape := []int{cfg.Channels, cfg.Height, cfg.Width}
	train, test := d500.SyntheticSplit(*samples, *samples/4, cfg.Classes, shape, 0.3, *seed)

	fmt.Printf("training %s (%d params) with %s on %s backend, B=%d, lr=%g\n",
		m.Name, m.ParamCount(), *opt, sess.Framework(), *batch, *lr)
	res, err := sess.Train(ctx, d500.TrainConfig{
		Optimizer:      ts,
		Train:          d500.ShuffleSampler(train, *batch, *seed),
		Test:           d500.SequentialSampler(test, *batch),
		Epochs:         *epochs,
		TargetAccuracy: *target,
		CheckpointPath: *ckpt,
		Resume:         cp,
	})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "d500train: interrupted, run cancelled")
		os.Exit(130)
	}
	fatalIf(err)

	fmt.Printf("\n%s\n", res)
	if res.TargetReached {
		fmt.Printf("time to %.0f%% accuracy: %v\n", *target*100, res.TimeToTarget)
	} else {
		fmt.Printf("target accuracy %.0f%% not reached\n", *target*100)
	}
	if *save != "" {
		fatalIf(sess.Save(*save))
		fmt.Printf("model saved to %s (serve it: d500serve -model %s)\n", *save, *save)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "d500train:", err)
		os.Exit(1)
	}
}
