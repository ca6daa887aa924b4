// Package bench is the machine-readable benchmark-result subsystem of
// Deep500-Go (paper §III-C / §V-A: metrics, environment capture and
// statistically sound timing are first-class artifacts, not printf output).
//
// It provides three pieces:
//
//   - a JSON schema (Report / Experiment / Record) capturing the experiment
//     id, git revision, execution environment, per-metric raw samples with
//     warmup discard, and derived statistics (min/median/p95, MAD, FLOP/s,
//     bytes and allocations per operation);
//   - a Suite registry experiments register themselves into, replacing the
//     hardcoded id switch that used to live in cmd/d500bench; and
//   - a comparator (Compare) that classifies every metric of two reports as
//     improved / regressed / neutral using overlap of median±MAD windows
//     plus a configurable relative threshold — the CI regression gate.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"deep500/internal/metrics"
)

// SchemaVersion identifies the report layout. Bump it on any breaking field
// change; the golden-file test (schema_test.go) breaks loudly on accidental
// renames.
const SchemaVersion = 1

// Direction states which way a metric should move to count as an
// improvement. ReportOnly metrics are captured for the record but never
// gate a comparison.
type Direction string

const (
	LowerIsBetter  Direction = "lower"
	HigherIsBetter Direction = "higher"
	ReportOnly     Direction = "report"
)

// Report is the top-level benchmark artifact: one run of one or more
// experiments in one captured environment.
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Suite         string       `json:"suite"`
	CreatedAt     string       `json:"created_at,omitempty"` // RFC 3339 UTC
	Env           Environment  `json:"environment"`
	Experiments   []Experiment `json:"experiments"`
}

// Environment captures everything needed to judge whether two reports are
// comparable (paper challenge: reproducibility requires recording the
// conditions of the measurement, not just its outcome).
type Environment struct {
	GitRev     string `json:"git_rev,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Seed       uint64 `json:"seed"`
}

// Experiment is the result of one registered experiment id.
type Experiment struct {
	ID      string   `json:"id"`
	Title   string   `json:"title,omitempty"`
	Records []Record `json:"records"`
	Notes   []string `json:"notes,omitempty"`
}

// Record is one metric series: raw post-warmup samples plus derived stats.
type Record struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  Direction `json:"better"`
	Work    int64     `json:"work_flop,omitempty"`        // FLOPs per measured op
	Warmup  int       `json:"warmup_discarded,omitempty"` // samples discarded before recording
	Samples []float64 `json:"samples,omitempty"`
	Stats   Stats     `json:"stats"`
}

// Stats are the derived statistics of one record.
type Stats struct {
	N           int     `json:"n"`
	Min         float64 `json:"min"`
	Median      float64 `json:"median"`
	Mean        float64 `json:"mean"`
	P95         float64 `json:"p95"`
	Max         float64 `json:"max"`
	MAD         float64 `json:"mad"`
	CI95Low     float64 `json:"ci95_low"`
	CI95High    float64 `json:"ci95_high"`
	FLOPS       float64 `json:"flop_per_sec,omitempty"` // Work / median, for "s" records with Work set
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// NewRecord builds a record from raw samples, deriving its statistics.
func NewRecord(name, unit string, better Direction, samples []float64) Record {
	r := Record{
		Name:    name,
		Unit:    unit,
		Better:  better,
		Samples: append([]float64(nil), samples...),
	}
	r.Finalize()
	return r
}

// Finalize (re)derives Stats from Samples, preserving the memory counters,
// and computes FLOP/s when the record is a timing with known work.
func (r *Record) Finalize() {
	bytesPerOp, allocsPerOp := r.Stats.BytesPerOp, r.Stats.AllocsPerOp
	s := metrics.Summarize(r.Samples)
	r.Stats = Stats{
		N:           s.N,
		Min:         s.Min,
		Median:      s.Median,
		Mean:        s.Mean,
		P95:         s.P95,
		Max:         s.Max,
		MAD:         s.MAD,
		CI95Low:     s.CI95Low,
		CI95High:    s.CI95High,
		BytesPerOp:  bytesPerOp,
		AllocsPerOp: allocsPerOp,
	}
	if r.Work > 0 && r.Unit == "s" && r.Stats.Median > 0 {
		r.Stats.FLOPS = float64(r.Work) / r.Stats.Median
	}
}

// WriteJSON writes the indented JSON form of the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path as JSON.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport loads a report from a JSON file, rejecting unknown schema
// versions so a stale baseline fails loudly instead of comparing garbage.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, want %d (refresh the baseline)",
			path, r.SchemaVersion, SchemaVersion)
	}
	// Re-derive stats from raw samples so the samples are authoritative:
	// a hand-edited report (e.g. an injected slowdown) or a schema-checked
	// baseline can never carry stats that disagree with its data.
	for i := range r.Experiments {
		for j := range r.Experiments[i].Records {
			if rec := &r.Experiments[i].Records[j]; len(rec.Samples) > 0 {
				rec.Finalize()
			}
		}
	}
	return &r, nil
}
