// Command benchmark measures a served request and a training step end to
// end and layer by layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run this one workload and print the result line last")
	all := flag.Bool("all", false, "run every workload; with -trace 1, each untraced and then traced")
	seed := flag.Uint64("seed", 500, "seed of the generated inputs, datasets and model initialisation")
	seconds := flag.Float64("seconds", 20, "length of the measure phase of one run")
	// Not a flag.Bool: BENCHMARK.json's driver passes "--trace 0" and
	// "--trace 1" as two arguments each, which a boolean flag cannot take.
	trace := flag.Int("trace", 0, "1: record the benchmark's own spans and report the per-layer metrics")
	outDir := flag.String("out", "benchmark/out", "directory for <workload>.json and <workload>.trace.json")
	repeat := flag.Int("repeat", 1, "with -all: run this many sets")
	check := flag.Bool("check", false, "with -all -repeat 2 or more: fail if an end-to-end metric of a later set differs from the first by more than its bound, or an exact count differs at all")
	probeMode := flag.Bool("probe", false, "internal: run as the host probe process")
	flag.Parse()
	if *probeMode {
		return probeMain()
	}
	if flag.NArg() > 0 || *all == (*name != "") || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 1 || (*check && *repeat < 2) {
		fmt.Fprintln(os.Stderr, "usage: benchmark (-workload <name> | -all [-repeat n [-check]]) [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *outDir}

	if !*all {
		rep, err := runOne(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Workload, err)
			return 1
		}
		return finish(rep, *outDir, true)
	}

	code := 0
	var sets [][]*report
	for s := 0; s < *repeat; s++ {
		var set []*report
		for _, w := range workloads {
			cfg.Workload, cfg.Trace = w.Name, false
			rep, err := runChild(cfg)
			if err == nil && *trace == 1 {
				var traced *report
				cfg.Trace = true
				if traced, err = runChild(cfg); err == nil {
					rep.merge(traced)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			code = max(code, finish(rep, *outDir, false))
			set = append(set, rep)
		}
		sets = append(sets, set)
	}
	if *check {
		if problems := checkSets(sets); len(problems) > 0 {
			for _, p := range problems {
				fmt.Println("check:", p)
			}
			return 1
		}
		fmt.Printf("check: %d sets agree within the bounds\n", len(sets))
	}
	return code
}

// runChild runs one workload in a process of its own, as BENCHMARK.json's
// driver does, so that -all reads what the driver reads: a process that has
// run other workloads before keeps some of their memory, and rss_mb shows it.
// The child's report comes back through its <workload>.json.
func runChild(cfg runConfig) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.OutDir, cfg.Workload+".json")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.Workload, "-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.OutDir)
	cmd.Stderr = os.Stderr // its standard output is dropped: the parent prints the report
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("child wrote no report (%v): %w", runErr, err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// finish prints and writes a report; a run with a failed op or a wrong
// output exits non-zero.
func finish(rep *report, outDir string, resultLine bool) int {
	rep.print(os.Stdout)
	if err := rep.write(outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if resultLine {
		line, err := rep.resultLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// checkSets is the self-check: against the first set, no later set's
// end-to-end metric may differ, in either direction, by more than its bound,
// and no exact-count metric may differ at all.
func checkSets(sets [][]*report) []string {
	var problems []string
	for s := 1; s < len(sets); s++ {
		for i, first := range sets[0] {
			later := sets[s][i]
			for _, m := range endToEnd {
				a, _ := first.value(m.Name)
				b, _ := later.value(m.Name)
				if d := math.Abs(b-a) / a; d > m.Bound {
					problems = append(problems, fmt.Sprintf("%s %s: set %d reads %g against %g in set 1, %.1f%% apart (bound %g%%)",
						first.Workload, m.Name, s+1, b, a, 100*d, 100*m.Bound))
				}
			}
			for _, m := range perLayer {
				a, traced := first.value(m.Name)
				b, _ := later.value(m.Name)
				if m.Exact && traced && a != b {
					problems = append(problems, fmt.Sprintf("%s %s: exact count reads %g in set %d against %g in set 1", first.Workload, m.Name, b, s+1, a))
				}
			}
		}
	}
	return problems
}
