package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"deep500/internal/bench"
)

func quickSuite() *bench.Suite {
	s := bench.NewSuite()
	RegisterExperiments(s, quick)
	return s
}

func TestRegistryCoversEveryExperiment(t *testing.T) {
	ids := quickSuite().IDs()
	want := []string{"tables", "fig2", "fig6conv", "fig6gemm", "fig6acc", "fig7",
		"overhead", "fig8", "table3", "fig9", "fig10", "fig11", "fig12strong",
		"fig12weak", "validate"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("id[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestTablesExperimentEmitsRecordsAndRenders(t *testing.T) {
	var human bytes.Buffer
	rep, err := quickSuite().Run(context.Background(), []string{"tables", "fig2"},
		bench.RunConfig{Out: &human, Env: bench.Environment{NumCPU: 8, CPUModel: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(human.String(), "Table I") || !strings.Contains(human.String(), "Fig. 2") {
		t.Fatal("human rendering missing")
	}
	if len(rep.Experiments) != 2 {
		t.Fatalf("experiments: %d", len(rep.Experiments))
	}
	recs := map[string]bench.Record{}
	for _, r := range rep.Experiments[0].Records {
		recs[r.Name] = r
	}
	if recs["tableI/systems"].Stats.Median != float64(len(TableI)) {
		t.Fatalf("tableI/systems: %+v", recs["tableI/systems"].Stats)
	}
	render, ok := recs["render/tables"]
	if !ok || render.Unit != "s" || render.Stats.N == 0 || render.Stats.Median <= 0 {
		t.Fatalf("render/tables: %+v", render)
	}
	if render.Warmup == 0 {
		t.Fatal("render timing must discard warmup samples")
	}
}

// pinnedRecords renders every record of rep that is a deterministic
// quantity — unit other than wall-clock seconds, direction other than
// report-only — as one line per record. Values print in the shortest form
// that parses back to the same float64, so equal lines mean bitwise equal
// values.
func pinnedRecords(rep *bench.Report) string {
	var b strings.Builder
	for _, e := range rep.Experiments {
		for _, r := range e.Records {
			if r.Unit == "s" || r.Better == bench.ReportOnly {
				continue
			}
			vals := make([]string, len(r.Samples))
			for i, v := range r.Samples {
				vals[i] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\n", e.ID, r.Name, r.Unit, r.Better, strings.Join(vals, " "))
		}
	}
	return b.String()
}

// TestPaperRecordsGolden runs every registered experiment at quick scale
// and holds each deterministic record (dispatch and row counts, FLOPs,
// peak bytes, wire bytes, virtual-clock throughput, accuracies and
// losses) exactly equal to testdata/paper_records.golden. These values
// do not depend on the host, its load or GOMAXPROCS, so any difference is
// a change in what the program computes. Timings ("s") and report-only
// records are not pinned. After an intended change regenerate with
// UPDATE_GOLDEN=1 go test ./internal/core -run TestPaperRecordsGolden
// and review the diff.
func TestPaperRecordsGolden(t *testing.T) {
	s := quickSuite()
	rep, err := s.Run(context.Background(), s.IDs(), bench.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := pinnedRecords(rep)
	path := filepath.Join("testdata", "paper_records.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
