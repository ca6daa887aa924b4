package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark is sized for is a small shared VM, and what it
// shares with its neighbours is the memory system: with no change to the
// program, ten runs in a row of one workload read throughputs a third apart,
// whole runs fast or slow, with nothing in /proc/stat to show for it, while a
// loop in registers ran as fast as ever and a walk through memory did not
// (README, "Why there is a reference clock"). Raw readings spread wider than
// the widest bound BENCHMARK.json may state. So a fixed kernel of the
// benchmark's own, the host probe, is timed between the windows of a run, and
// times are reported as they would read on a host that runs the probe in
// probeReference.
//
// The probe must not be something the program under test can move. It runs
// in a process of its own, which shares no heap, garbage collector or
// scheduler with the program, and only while the program is idle: the closed
// loop is stopped, the probe is timed, the loop goes on. It is never timed
// while the program runs.
//
// The kernel is a walk through memory larger than any cache, one load per
// cache line: the one thing that was seen to slow when the workloads did, and
// by about as much (README, same section).

const (
	probeStreamLen = 16 << 20 // float32s: 64 MB
	probeLineLen   = 16       // float32s in a cache line
	probePasses    = 5

	// probeReference is what one pass takes on this class of host when it is
	// quiet. It only sets the unit of the reported times: a comparison of two
	// commits does not depend on it.
	probeReference = 4500 * time.Microsecond
)

type probeKernel struct {
	stream []float32
	sink   float32
}

func newProbeKernel() *probeKernel {
	k := &probeKernel{stream: make([]float32, probeStreamLen)}
	for i := range k.stream {
		k.stream[i] = 1 // touch every page before the first timing
	}
	return k
}

// run times probePasses passes and returns the median, which drops a pass
// that was interrupted.
func (k *probeKernel) run() time.Duration {
	took := make([]time.Duration, probePasses)
	for p := range took {
		start := time.Now()
		var sum float32
		for i := 0; i < len(k.stream); i += probeLineLen {
			sum += k.stream[i]
		}
		k.sink += sum
		took[p] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return took[len(took)/2]
}

// probeMain is the probe process: for every line on standard input it times
// the kernel once and answers with the nanoseconds on a line of standard
// output, until standard input ends.
func probeMain() int {
	kernel := newProbeKernel()
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if _, err := fmt.Println(kernel.run().Nanoseconds()); err != nil {
			return 1
		}
	}
	return 0
}

// hostProbe is the benchmark's end of the probe process.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-probe")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := p.slowdown(); err != nil { // the first answer also says the stream is allocated
		p.close()
		return nil, err
	}
	return p, nil
}

// slowdown times the kernel once, now, and returns how many times slower
// than the reference the host ran it. The caller must have the program idle.
func (p *hostProbe) slowdown() (float64, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("host probe answered %q", line)
	}
	return float64(ns) / float64(probeReference), nil
}

// close ends the probe process and waits for it.
func (p *hostProbe) close() {
	p.in.Close()
	p.cmd.Wait() // it was only ever asked to exit
}
