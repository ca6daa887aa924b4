package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenReport is a fully populated report with deterministic contents;
// every schema field appears at least once.
func goldenReport() *Report {
	rec := NewRecord("spotlight/deepbench/native", "s", LowerIsBetter, []float64{0.5, 0.25, 0.25, 0.25})
	rec.Work = 1_000_000
	rec.Warmup = 1
	rec.Stats.BytesPerOp = 4096
	rec.Stats.AllocsPerOp = 12
	rec.Finalize()
	return &Report{
		SchemaVersion: SchemaVersion,
		Suite:         "d500bench",
		CreatedAt:     "2026-07-25T12:00:00Z",
		Env: Environment{
			GitRev:     "0123456789abcdef",
			GoVersion:  "go1.22.0",
			GOOS:       "linux",
			GOARCH:     "amd64",
			CPUModel:   "Golden CPU @ 2.10GHz",
			NumCPU:     8,
			GOMAXPROCS: 8,
			Quick:      true,
			Seed:       500,
		},
		Experiments: []Experiment{{
			ID:    "fig6gemm",
			Title: "Fig. 6b: GEMM performance",
			Records: []Record{
				rec,
				NewRecord("coverage", "rows", HigherIsBetter, []float64{20}),
				NewRecord("overhead-fraction", "ratio", ReportOnly, []float64{0.007}),
			},
			Notes: []string{"golden fixture"},
		}},
	}
}

// TestSchemaGolden pins the serialized report layout byte-for-byte:
// renaming or retyping any JSON field breaks this test loudly, which is
// the contract the CI report artifact and external consumers rely on. If
// the change is intentional, bump SchemaVersion and regenerate with
// UPDATE_GOLDEN=1 go test ./internal/bench -run TestSchemaGolden.
func TestSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("serialized schema drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
