// Command d500bench regenerates every table and figure of the Deep500
// paper's evaluation (§V) through the public d500 Session API and emits
// machine-readable benchmark reports (internal/bench schema).
//
// Usage:
//
//	d500bench -experiment all                       # everything (paper-scale)
//	d500bench -experiment fig6conv -quick
//	d500bench -experiment tables,fig2 -quick        # comma-separated ids
//	d500bench -experiment all -quick -format json -out bench.json
//	d500bench -experiment all -quick -timeout 2m    # deadline-bounded run
//	d500bench -list
//
// The deterministic records of every experiment (counts, bytes, virtual
// time, accuracies; not wall-clock seconds) are pinned exactly by
// internal/core's TestPaperRecordsGolden.
//
// Exit codes: 0 success, 1 experiment failure, 2 usage error (unknown or
// repeated experiment id, bad flags).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"deep500/d500"
)

func main() { os.Exit(run()) }

func run() int {
	experiment := flag.String("experiment", "all", "comma-separated experiment ids (or 'all')")
	quick := flag.Bool("quick", false, "scaled-down problem sizes and re-runs")
	seed := flag.Uint64("seed", 500, "global RNG seed")
	timeout := flag.Duration("timeout", 0, "abort the suite after this duration (0 = no deadline)")
	format := flag.String("format", "text", "output format: text or json")
	out := flag.String("out", "", "write the JSON benchmark report to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "d500bench: unknown -format %q (text or json)\n", *format)
		return 2
	}

	sessOpts := []d500.Option{d500.WithSeed(*seed)}
	if *quick {
		sessOpts = append(sessOpts, d500.WithQuick())
	}
	sess, err := d500.New(sessOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "d500bench:", err)
		return 2
	}

	if *list {
		for _, id := range sess.Experiments() {
			fmt.Println(id)
		}
		return 0
	}

	// No positional arguments are meaningful; a stray word (e.g. a value
	// after a boolean flag) silently stops flag parsing, so reject it loudly
	// instead of running a misconfigured suite.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "d500bench: unexpected argument %q (flags must precede it; boolean flags like -quick take no value)\n", flag.Arg(0))
		return 2
	}

	var targets []string
	for _, id := range strings.Split(*experiment, ",") {
		if id = strings.TrimSpace(id); id != "" {
			targets = append(targets, id)
		}
	}
	if *experiment == "all" {
		targets = sess.Experiments()
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "d500bench: -experiment names no experiments")
		return 2
	}
	seen := map[string]bool{}
	for _, id := range targets {
		if !sess.HasExperiment(id) {
			fmt.Fprintf(os.Stderr, "d500bench: unknown experiment %q; known ids:\n", id)
			for _, known := range sess.Experiments() {
				fmt.Fprintln(os.Stderr, "  "+known)
			}
			return 2
		}
		if seen[id] {
			fmt.Fprintf(os.Stderr, "d500bench: experiment %q named twice\n", id)
			return 2
		}
		seen[id] = true
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var human io.Writer = os.Stdout
	if *format == "json" {
		human = io.Discard // stdout carries the report itself
	}
	report, runErr := sess.Bench(ctx, targets, d500.BenchConfig{Out: human})
	if runErr != nil {
		if errors.Is(runErr, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "d500bench: suite stopped at the -timeout %v deadline (%d experiment(s) completed)\n",
				*timeout, len(report.Experiments))
		} else {
			fmt.Fprintf(os.Stderr, "d500bench: %v\n", runErr)
		}
	}
	// The suite preserves experiments that completed before an error or
	// deadline; write whatever we have so partial runs are not lost.
	if *format == "json" {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
			return 1
		}
	}
	if runErr != nil {
		return 1
	}
	return 0
}
