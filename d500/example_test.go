package d500_test

import (
	"context"
	"fmt"
	"log"

	"deep500/d500"
	"deep500/internal/models"
)

// Example_quickstart walks the shortest useful path through the public
// API: build a zoo model, open it in a session, run one inference pass.
// Printed values are structural (node and parameter counts, output
// presence), so the example output is deterministic on every platform.
func Example_quickstart() {
	// A LeNet with a training head: inputs "x"/"labels", outputs include
	// "loss" and "acc".
	model := models.LeNet(models.Config{
		Classes: 10, Channels: 1, Height: 28, Width: 28,
		WithHead: true, Seed: 42,
	})

	sess, err := d500.New(d500.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Open(model); err != nil {
		log.Fatal(err)
	}

	train, _ := d500.SyntheticSplit(8, 4, 10, []int{1, 28, 28}, 0.3, 7)
	batch := d500.SequentialSampler(train, 8).Next()
	out, err := sess.Infer(context.Background(), batch.Feeds())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("model %q: %d nodes, %d parameters\n",
		model.Name, len(model.Nodes), model.ParamCount())
	fmt.Printf("outputs: loss=%t acc=%t\n", out["loss"] != nil, out["acc"] != nil)
	// Output:
	// model "lenet": 14 nodes, 61706 parameters
	// outputs: loss=true acc=true
}

// ExampleSession_Train trains a small MLP on an easily learnable
// synthetic task and reports coarse, platform-independent facts about the
// result instead of raw floats.
func ExampleSession_Train() {
	model := models.MLP(models.Config{
		Classes: 4, Channels: 1, Height: 6, Width: 6,
		WithHead: true, Seed: 1,
	}, 32)

	sess, err := d500.New(d500.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Open(model); err != nil {
		log.Fatal(err)
	}

	train, test := d500.SyntheticSplit(256, 64, 4, []int{1, 6, 6}, 0.1, 3)
	res, err := sess.Train(context.Background(), d500.TrainConfig{
		Optimizer: d500.Momentum(0.05, 0.9),
		Train:     d500.ShuffleSampler(train, 32, 1),
		Test:      d500.SequentialSampler(test, 32),
		Epochs:    3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("epochs=%d steps=%d\n", res.Epochs, res.Steps)
	fmt.Printf("learned something: %t\n", res.FinalTestAccuracy > 0.5)
	// Output:
	// epochs=3 steps=24
	// learned something: true
}

// ExampleSession_Bench runs one registered paper experiment in quick mode
// and inspects the machine-readable report it returns.
func ExampleSession_Bench() {
	sess, err := d500.New(d500.WithQuick(), d500.WithSeed(500))
	if err != nil {
		log.Fatal(err)
	}

	rep, err := sess.Bench(context.Background(), []string{"tables"}, d500.BenchConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("schema v%d, experiments: %d\n", rep.SchemaVersion, len(rep.Experiments))
	exp := rep.Experiments[0]
	fmt.Printf("id=%s records=%t\n", exp.ID, len(exp.Records) > 0)
	// Output:
	// schema v1, experiments: 1
	// id=tables records=true
}
