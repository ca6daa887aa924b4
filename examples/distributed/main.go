// Distributed training schemes: the paper's Listing 8, runnable.
//
// Every scheme of the job-spec table — allreduce DSGD, neighbor-gossip
// DPSGD, model averaging, sparsified allreduce, and the synchronous,
// asynchronous and stale-synchronous parameter servers — trains the same
// model on a simulated 4-worker cluster with real data movement. Each run
// is jobs.Simulate: the rank program the d500dist worker processes run
// over TCP, here on goroutine ranks under a virtual α-β clock. Only the
// spec's Scheme changes between rows, demonstrating that "comparing
// multiple communication schemes is as easy as replacing an operator"
// (§V-E). The program reports accuracy, communication volume and the
// simulated makespan.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"deep500/internal/jobs"
	"deep500/internal/mpi"
)

func main() {
	fmt.Printf("%-8s %-10s %-12s %-12s\n", "scheme", "accuracy", "sent", "sim time")
	for _, scheme := range jobs.Schemes() {
		res, err := jobs.Simulate(context.Background(), jobs.Spec{
			Scheme: scheme, Workers: 4, Epochs: 3, Batch: 16, Samples: 1536, Seed: 9,
		}, mpi.Aries())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-10.4f %-12s %-12v\n", scheme, res.Accuracy,
			fmt.Sprintf("%.2f MB", float64(res.Volume.Sent())/1e6), res.Makespan)
	}
}
