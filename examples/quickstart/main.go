// Quickstart: build a network, train it, validate it, save it — entirely
// through the public d500 Session API.
//
// This example walks the four levels of Deep500-Go: a D5NX model (Level 1)
// of Level 0 operators is trained (Level 2) on a synthetic MNIST-scale
// task with a structured event stream observing every step, evaluated,
// and serialized for reproducibility.
//
// Run: go run ./examples/quickstart        (full: 3 epochs, 2048 samples)
//
//	go run ./examples/quickstart -quick  (CI smoke mode, a few seconds)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"deep500/d500"
	"deep500/internal/models"
)

func main() {
	quick := flag.Bool("quick", false, "scaled-down run for CI smoke testing")
	flag.Parse()
	epochs, nTrain, nTest := 3, 2048, 512
	if *quick {
		epochs, nTrain, nTest = 1, 256, 64
	}
	ctx := context.Background()

	// 1. Build a LeNet with a training head ("x", "labels" → "loss", "acc").
	cfg := models.Config{
		Classes: 10, Channels: 1, Height: 28, Width: 28,
		WithHead: true, Seed: 42,
	}
	model := models.LeNet(cfg)
	fmt.Printf("model %q: %d nodes, %d parameters\n",
		model.Name, len(model.Nodes), model.ParamCount())

	// 2. Assemble a session from typed options: a fixed seed and a
	//    console event consumer.
	sess, err := d500.New(
		d500.WithSeed(42),
		d500.WithHook(d500.ConsoleHook(log.Writer())),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Open(model); err != nil {
		log.Fatal(err)
	}

	// 3. Train with momentum SGD on a synthetic-but-learnable dataset.
	//    Every step/epoch/eval flows through the hook installed above.
	train, test := d500.SyntheticSplit(nTrain, nTest, 10, []int{1, 28, 28}, 0.3, 7)
	res, err := sess.Train(ctx, d500.TrainConfig{
		Optimizer:      d500.Momentum(0.02, 0.9),
		Train:          d500.ShuffleSampler(train, 64, 1),
		Test:           d500.SequentialSampler(test, 64),
		Epochs:         epochs,
		TargetAccuracy: 0.95,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report Level 2 metrics.
	fmt.Println(res)
	if res.TargetReached {
		fmt.Printf("time to 95%% accuracy: %v\n", res.TimeToTarget)
	}

	// 5. Save the trained model in the D5NX format and load it back —
	//    entirely through the public checkpoint API (Session.Save /
	//    d500.Load). The loaded model is ready for d500serve.
	path := filepath.Join(".", "lenet-trained.d5nx")
	if err := sess.Save(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := d500.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved and reloaded %q (%d parameters) from %s\n",
		loaded.Name, loaded.ParamCount(), path)
}
