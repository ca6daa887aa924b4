package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// metricValue is one metric as printed and as written to the report.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Raw   float64 `json:"raw,omitempty"`   // end-to-end only: the reading before it was put on the reference clock
	N     int     `json:"n,omitempty"`     // samples behind the value
	Bound float64 `json:"bound,omitempty"` // end-to-end only
}

// report is what one run of one workload produced; <workload>.json holds it.
type report struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// Slowdown is the host probe's time over its reference during the
	// measure phase: reported times are raw times divided by it. LostShare
	// is the share of the machine's CPU capacity that the hypervisor took or
	// other processes used then; no metric is corrected by it.
	Slowdown  float64 `json:"host_slowdown"`
	LostShare float64 `json:"host_lost_share"`

	Correct   bool          `json:"correct"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	EndToEnd  []metricValue `json:"end_to_end,omitempty"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	Findings  []string      `json:"findings,omitempty"`
}

func newReport(cfg runConfig) *report {
	return &report{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Correct: true,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
}

func (r *report) count(seg segment) {
	r.Attempted += seg.attempted
	r.Failed += seg.failed
	if seg.failed > 0 {
		r.Correct = false
	}
}

// noteHost records how much of the machine a segment did not have, and
// says so when it was enough to move the numbers: they are then of the
// host as much as of the program.
func (r *report) noteHost(seg segment) {
	r.Slowdown, r.LostShare = seg.slowdown(), seg.lostShare()
	if r.LostShare > 0.05 {
		r.Findings = append(r.Findings, fmt.Sprintf("noisy host: the hypervisor and other processes had %.0f%% of the CPU during the measure phase", 100*r.LostShare))
	}
}

// reading is a measured value, on the reference clock and raw, and the
// number of samples behind it.
type reading struct {
	value, raw float64
	n          int
}

func (r *report) setEndToEnd(values map[string]reading) {
	for _, m := range endToEnd {
		r.EndToEnd = append(r.EndToEnd, metricValue{Name: m.Name, Unit: m.Unit, Value: values[m.Name].value, Raw: values[m.Name].raw, N: values[m.Name].n, Bound: m.Bound})
	}
}

func (r *report) setPerLayer(values map[string]float64, n int) {
	for _, m := range perLayer {
		r.PerLayer = append(r.PerLayer, metricValue{Name: m.Name, Unit: m.Unit, Value: values[m.Name], N: n})
	}
}

// merge folds a traced run of the same workload into an untraced one.
func (r *report) merge(traced *report) {
	r.PerLayer = traced.PerLayer
	r.Findings = append(r.Findings, traced.Findings...)
	r.Attempted += traced.Attempted
	r.Failed += traced.Failed
	r.Correct = r.Correct && traced.Correct
}

func (r *report) value(name string) (float64, bool) {
	for _, list := range [][]metricValue{r.EndToEnd, r.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Value, true
			}
		}
	}
	return 0, false
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  attempted %d  failed %d  fail_frac %g  correct %v  (host at %.2fx the reference time, %.1f%% of its CPU lost to others)\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct, r.Slowdown, 100*r.LostShare)
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "  %-32s %14s %-8s raw %-12s n=%-7d bound %.0f%%\n", m.Name, number(m.Value), m.Unit, number(m.Raw), m.N, 100*m.Bound)
	}
	for _, m := range r.PerLayer {
		fmt.Fprintf(w, "  %-32s %14s %s\n", m.Name, number(m.Value), m.Unit)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
}

// number prints a count in full and anything else to six digits.
func number(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func (r *report) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), data, 0o644)
}

// resultLine is the last line of standard output of a single-workload run:
// the end-to-end metrics of an untraced run, the per-layer ones of a traced.
func (r *report) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, list := range [][]metricValue{r.EndToEnd, r.PerLayer} {
		for _, m := range list {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
