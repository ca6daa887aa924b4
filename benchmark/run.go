package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
}

// setupRepeats is how many times a run sets the program up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 9

// A traced run spends this share of its seconds on an instance that carries
// no hook, middleware, Events or wrapper of the benchmark's, and the rest on
// one that carries them all: trace.overhead_frac and the runtime.* deltas
// compare the two.
const untracedShare = 0.4

// setupTimes delimits setup_s: building the model, constructing the program
// around it (executor, server, registry, listener, world dial), and a
// fixed-count warm-up. The benchmark's own input generation and reference
// outputs are outside it.
type setupTimes struct {
	build, construct, warmup time.Duration
	dial                     time.Duration // part of construct; train_tcp_mlp only
}

func (s setupTimes) total() time.Duration { return s.build + s.construct + s.warmup }

// at returns the times as they would read on the reference host.
func (s setupTimes) at(slowdown float64) setupTimes {
	f := func(d time.Duration) time.Duration { return time.Duration(float64(d) / slowdown) }
	return setupTimes{f(s.build), f(s.construct), f(s.warmup), f(s.dial)}
}

// workload is one program under test with its closed-loop callers.
type workload interface {
	// prepare makes the seeded inputs and the benchmark's reference outputs.
	prepare() error
	// setup builds, starts and warms the program, with the benchmark's
	// hooks and wrappers installed only if traced; close discards it.
	setup(traced bool) (setupTimes, error)
	close()
	// drive runs the closed loop until the deadline, recording spans into
	// rec when it is not nil, and returns the latency in ms of every
	// successful op. A failed op is one that returned an error, a non-200
	// status, a wrong output or a non-finite loss.
	drive(deadline time.Time, rec *recorder) (opMS []float64, attempted, failed int, err error)
	// samplesPerOp is rows per request, or world × batch per step.
	samplesPerOp() int
	// verify is the end-of-run check that no single op can make.
	verify() error
	// layers fills the workload's own per-layer metrics from a traced
	// segment, times and rates on the reference clock like all others, and
	// returns findings worth printing.
	layers(base, traced segment, rec *recorder, probe *hostProbe, out map[string]float64) ([]string, error)
}

// windowLength is how long the closed loop runs between two timings of the
// host probe.
const windowLength = time.Second

// segment is one measured stretch of the closed loop, made of windows. Every
// window is kept. Each reading is held twice: raw, and on the reference clock,
// that is divided by the slowdown of the host probe around its window.
type segment struct {
	attempted, failed int
	opMS, refOpMS     []float64     // latency of every successful op
	busy, refBusy     time.Duration // the windows' wall-clock time; the probe's pauses are not in it
	cpu, refCPU       time.Duration // process CPU, user + system
	lost              time.Duration // CPU the hypervisor took or other processes used, summed over the CPUs
	rssMB             float64       // median of the resident set size, sampled every rssEvery
	mallocs, allocKB  float64
	gcPause           time.Duration
	gcCycles          uint32
}

// add takes in one window that ran while the host was slowdown times slower
// than the reference.
func (s *segment) add(opMS []float64, attempted, failed int, took, cpu, lost time.Duration, slowdown float64) {
	s.attempted += attempted
	s.failed += failed
	for _, ms := range opMS {
		s.opMS = append(s.opMS, ms)
		s.refOpMS = append(s.refOpMS, ms/slowdown)
	}
	s.busy += took
	s.refBusy += time.Duration(float64(took) / slowdown)
	s.cpu += cpu
	s.refCPU += time.Duration(float64(cpu) / slowdown)
	s.lost += lost
}

func (s segment) ops() float64 { return float64(len(s.opMS)) }

// opsPerS is the throughput on the reference clock.
func (s segment) opsPerS() float64 { return s.ops() / s.refBusy.Seconds() }

// slowdown is the segment's own: its raw time over its reference time.
func (s segment) slowdown() float64 { return float64(s.busy) / float64(s.refBusy) }

func (s segment) lostShare() float64 {
	return s.lost.Seconds() / (s.busy.Seconds() * float64(runtime.NumCPU()))
}

// usage returns the CPU time this process has used, user and system, and
// the largest resident set it has had, in MB.
func usage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KB
}

// rssMB reads the resident set size now, the second field of
// /proc/self/statm in pages; 0 where the file is missing.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

const rssEvery = 100 * time.Millisecond

// sampleRSS reads the resident set size every rssEvery until the returned
// function is called, which gives the median reading. A single reading
// depends on where the garbage collector happens to be.
func sampleRSS() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan struct{})
	readings := []float64{rssMB()}
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				readings = append(readings, rssMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return median(readings)
	}
}

// machineTime reads the first line of /proc/stat: the cumulative time, over
// all CPUs, that the hypervisor took from the machine (stolen) and that the
// machine spent running anything at all (busy), in ticks of 10 ms. Both read
// 0 where the file is missing.
func machineTime() (busy, stolen time.Duration) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	var ticks [8]int64
	for i := range ticks {
		if ticks[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return 0, 0
		}
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ticks[0]+ticks[1]+ticks[2]+ticks[5]+ticks[6]) * tick, time.Duration(ticks[7]) * tick
}

// measure drives the closed loop for d, a window at a time, timing the host
// probe before, between and after the windows while the loop is stopped. A
// window is on the reference clock by the mean of the two timings around it.
func measure(w workload, probe *hostProbe, d time.Duration, rec *recorder) (seg segment, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stopRSS := sampleRSS()
	defer func() { seg.rssMB = stopRSS() }()
	s0, err := probe.slowdown()
	if err != nil {
		return seg, err
	}
	for left := d; left > 0; {
		busy0, stolen0 := machineTime()
		cpu0, _ := usage()
		start := time.Now()
		opMS, attempted, failed, err := w.drive(start.Add(min(windowLength, left)), rec)
		took := time.Since(start)
		cpu1, _ := usage()
		busy1, stolen1 := machineTime()
		if err != nil {
			return seg, err
		}
		s1, err := probe.slowdown()
		if err != nil {
			return seg, err
		}
		cpu := cpu1 - cpu0
		others := max(0, (busy1-busy0)-cpu) // what ran on the machine that was not this process
		seg.add(opMS, attempted, failed, took, cpu, stolen1-stolen0+others, (s0+s1)/2)
		s0 = s1
		left -= took
	}
	runtime.ReadMemStats(&after)
	seg.mallocs = float64(after.Mallocs - before.Mallocs)
	seg.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	seg.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	seg.gcCycles = after.NumGC - before.NumGC
	if len(seg.opMS) == 0 {
		return seg, fmt.Errorf("no op succeeded in %v (%d attempted)", d, seg.attempted)
	}
	return seg, nil
}

// runOne runs one workload once: untraced for the end-to-end metrics, or
// traced for the per-layer ones.
func runOne(cfg runConfig) (*report, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	w := spec.new(cfg)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	defer w.close()
	probe, err := startHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()

	// Each set-up is on the reference clock by the probe's timings around it.
	raw, setups := make([]setupTimes, setupRepeats), make([]setupTimes, setupRepeats)
	s0, err := probe.slowdown()
	if err != nil {
		return nil, err
	}
	for i := range setups {
		w.close()
		st, err := w.setup(false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		s1, err := probe.slowdown()
		if err != nil {
			return nil, err
		}
		raw[i], setups[i] = st, st.at((s0+s1)/2)
		s0 = s1
	}
	pick := func(from []setupTimes, f func(setupTimes) time.Duration) float64 {
		vals := make([]float64, len(from))
		for i, st := range from {
			vals[i] = f(st).Seconds()
		}
		return median(vals)
	}

	rep := newReport(cfg)
	total := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		seg, err := measure(w, probe, total, nil)
		if err != nil {
			return nil, err
		}
		n, rows := len(seg.opMS), float64(w.samplesPerOp())
		rep.count(seg)
		rep.setEndToEnd(map[string]reading{
			"setup_s":       {pick(setups, setupTimes.total), pick(raw, setupTimes.total), setupRepeats},
			"samples_per_s": {rows * seg.opsPerS(), rows * seg.ops() / seg.busy.Seconds(), n},
			"op_p50_ms":     {median(seg.refOpMS), median(seg.opMS), n},
			"cpu_ms_per_op": {seg.refCPU.Seconds() * 1e3 / seg.ops(), seg.cpu.Seconds() * 1e3 / seg.ops(), n},
			"rss_mb":        {seg.rssMB, seg.rssMB, int(seg.busy / rssEvery)},
		})
		rep.noteHost(seg)
	} else {
		base, err := measure(w, probe, time.Duration(untracedShare*float64(total)), nil)
		if err != nil {
			return nil, err
		}
		w.close()
		if _, err := w.setup(true); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		rec := newRecorder()
		traced, err := measure(w, probe, total-base.busy, rec)
		if err != nil {
			return nil, err
		}
		rep.count(base)
		rep.count(traced)
		_, peakMB := usage()
		out := map[string]float64{
			"client.latency_p95_ms":     percentile(traced.refOpMS, 0.95),
			"client.latency_p99_ms":     percentile(traced.refOpMS, 0.99),
			"runtime.allocs_per_op":     base.mallocs / base.ops(),
			"runtime.alloc_kb_per_op":   base.allocKB / base.ops(),
			"runtime.gc_pause_ms_per_s": base.gcPause.Seconds() * 1e3 / base.busy.Seconds(),
			"runtime.gc_cycles":         float64(base.gcCycles),
			"runtime.peak_rss_mb":       peakMB,
			"setup.model_build_ms":      pick(setups, func(s setupTimes) time.Duration { return s.build }) * 1e3,
			"setup.construct_ms":        pick(setups, func(s setupTimes) time.Duration { return s.construct }) * 1e3,
			"setup.warmup_ms":           pick(setups, func(s setupTimes) time.Duration { return s.warmup }) * 1e3,
			"transport.dial_ms":         pick(setups, func(s setupTimes) time.Duration { return s.dial }) * 1e3,
			"trace.overhead_frac":       1 - traced.opsPerS()/base.opsPerS(),
		}
		findings, err := w.layers(base, traced, rec, probe, out)
		if err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		if out["trace.overhead_frac"] > 0.1 {
			findings = append(findings, fmt.Sprintf("tracing slowed the loop by %.1f%% (above 10%%)", 100*out["trace.overhead_frac"]))
		}
		if err := validateSpans(rec.spans); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := writeTrace(filepath.Join(cfg.OutDir, cfg.Workload+".trace.json"), cfg.Workload, cfg.Seed, rec.spans); err != nil {
			return nil, err
		}
		rep.Findings = findings
		rep.noteHost(traced)
		rep.setPerLayer(out, len(traced.opMS))
	}
	if err := w.verify(); err != nil {
		rep.Correct = false
		rep.Findings = append(rep.Findings, "incorrect: "+err.Error())
	}
	return rep, nil
}
