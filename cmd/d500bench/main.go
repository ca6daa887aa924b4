// Command d500bench regenerates every table and figure of the Deep500
// paper's evaluation (§V) through the public d500 Session API and emits
// machine-readable benchmark reports (internal/bench schema).
//
// Usage:
//
//	d500bench -experiment all                       # everything (paper-scale)
//	d500bench -experiment fig6conv -quick
//	d500bench -experiment tables,serve -quick       # comma-separated ids
//	d500bench -experiment tables -quick -format json -out bench.json
//	d500bench -experiment all -quick -timeout 2m    # deadline-bounded run
//	d500bench -compare old.json new.json            # regression gate
//	d500bench -experiment tables -quick -baseline BENCH_BASELINE.json
//	d500bench -list
//
// Exit codes: 0 success, 1 experiment failure or classified regression,
// 2 usage error (unknown experiment id, bad flags).
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
	"deep500/internal/bench"
)

func main() { os.Exit(run()) }

func run() int {
	experiment := flag.String("experiment", "all", "comma-separated experiment ids (or 'all')")
	quick := flag.Bool("quick", false, "scaled-down problem sizes and re-runs")
	seed := flag.Uint64("seed", 500, "global RNG seed")
	timeout := flag.Duration("timeout", 0, "abort the suite after this duration (0 = no deadline)")
	format := flag.String("format", "text", "output format: text or json")
	out := flag.String("out", "", "write the JSON benchmark report to this file")
	compare := flag.String("compare", "", "compare this baseline report against a second report (positional arg) and exit")
	baseline := flag.String("baseline", "", "after running, gate the fresh report against this baseline report")
	threshold := flag.Float64("threshold", bench.DefaultThreshold, "relative median change classified as improvement/regression")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "d500bench: unknown -format %q (text or json)\n", *format)
		return 2
	}

	// Pure comparison mode: no experiments run.
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "d500bench: -compare OLD.json needs exactly one positional argument: NEW.json")
			return 2
		}
		return compareReports(*compare, flag.Arg(0), *threshold, *format)
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

	// Outside -compare mode no positional arguments are meaningful; a stray
	// word (e.g. a value after a boolean flag) silently stops flag parsing,
	// so reject it loudly instead of running a misconfigured suite.
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
	for _, id := range targets {
		if !sess.HasExperiment(id) {
			fmt.Fprintf(os.Stderr, "d500bench: unknown experiment %q; known ids:\n", id)
			for _, known := range sess.Experiments() {
				fmt.Fprintln(os.Stderr, "  "+known)
			}
			return 2
		}
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
	if *baseline != "" {
		old, err := bench.ReadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
			return 1
		}
		cmp := bench.Compare(old, report, bench.CompareConfig{Threshold: *threshold})
		cmp.Render(os.Stderr)
		if cmp.Regressed > 0 {
			fmt.Fprintf(os.Stderr, "d500bench: %d metric(s) regressed against %s\n", cmp.Regressed, *baseline)
			return 1
		}
	}
	return 0
}

func compareReports(oldPath, newPath string, threshold float64, format string) int {
	oldR, err := bench.ReadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
		return 1
	}
	newR, err := bench.ReadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
		return 1
	}
	cmp := bench.Compare(oldR, newR, bench.CompareConfig{Threshold: threshold})
	if format == "json" {
		if err := cmp.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "d500bench: %v\n", err)
			return 1
		}
	} else {
		cmp.Render(os.Stdout)
	}
	if cmp.Regressed > 0 {
		fmt.Fprintf(os.Stderr, "d500bench: %d metric(s) regressed\n", cmp.Regressed)
		return 1
	}
	return 0
}
