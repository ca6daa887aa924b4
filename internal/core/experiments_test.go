package core

import (
	"bytes"
	"context"
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
		"fig12weak", "validate", "serve", "dist", "load"}
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

// TestSelfCompareNeutralAndInjectedSlowdownRegresses is the acceptance
// scenario end-to-end: a report compared against itself is all-neutral and
// exits clean; doubling one timing sample set classifies it regressed.
func TestSelfCompareNeutralAndInjectedSlowdownRegresses(t *testing.T) {
	env := bench.Environment{NumCPU: 8, GOMAXPROCS: 8, CPUModel: "test"}
	rep, err := quickSuite().Run(context.Background(), []string{"tables"}, bench.RunConfig{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	self := bench.Compare(rep, rep, bench.CompareConfig{})
	if self.Regressed != 0 || self.Improved != 0 {
		t.Fatalf("self-compare not neutral: %+v", self.Deltas)
	}

	// Copy the report with a 2× slowdown injected into the wall-clock
	// record, as a CI regression would appear. Doubling the same samples
	// (rather than re-running) keeps the verdict independent of host load.
	slow := *rep
	slow.Experiments = []bench.Experiment{rep.Experiments[0]}
	slow.Experiments[0].Records = append([]bench.Record(nil), rep.Experiments[0].Records...)
	injected := false
	for i := range slow.Experiments[0].Records {
		rec := &slow.Experiments[0].Records[i]
		if rec.Name == "render/tables" {
			rec.Samples = append([]float64(nil), rec.Samples...)
			for j := range rec.Samples {
				rec.Samples[j] *= 2
			}
			rec.Finalize()
			injected = true
		}
	}
	if !injected {
		t.Fatal("render/tables record missing")
	}
	cmp := bench.Compare(rep, &slow, bench.CompareConfig{})
	found := false
	for _, d := range cmp.Deltas {
		if d.Metric == "render/tables" {
			found = true
			if d.Class != bench.ClassRegressed {
				t.Fatalf("injected slowdown classified %q (%+v)", d.Class, d)
			}
		}
	}
	if !found || cmp.Regressed == 0 {
		t.Fatalf("regression not detected: %+v", cmp)
	}

	// The same injection on a single-CPU environment is report-only — the
	// CI de-flake contract for quick-mode bench jobs.
	oneCPU := env
	oneCPU.NumCPU = 1
	repOne, slowOne := *rep, slow
	repOne.Env, slowOne.Env = oneCPU, oneCPU
	if c := bench.Compare(&repOne, &slowOne, bench.CompareConfig{}); c.Regressed != 0 {
		t.Fatalf("single-CPU env must not gate wall clock: %+v", c.Deltas)
	}
}
