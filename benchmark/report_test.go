package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func nan() float64 { return math.NaN() }

func sampleReport() *report {
	rep := newReport(runConfig{Workload: "train_lenet", Seed: 3, Seconds: 20})
	e2e, layers := map[string]reading{}, map[string]float64{}
	for i, m := range endToEnd {
		e2e[m.Name] = reading{float64(i) + 0.5, float64(i) + 0.75, 400}
	}
	for i, m := range perLayer {
		layers[m.Name] = float64(i) * 1.25
	}
	rep.setEndToEnd(e2e)
	rep.setPerLayer(layers, 240)
	rep.Attempted, rep.Findings = 640, []string{"a finding"}
	return rep
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("report changed in a JSON round trip:\n%+v\n%+v", rep, &back)
	}
}

// manifest is BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the report name the same workloads and metrics, with
// the same units, directions and bounds, in both directions.
func TestManifestMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	rep := sampleReport()

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, benchmark %q: %q", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(rep.EndToEnd) {
		t.Fatalf("manifest lists %d end-to-end metrics, the report holds %d", len(m.EndToEnd), len(rep.EndToEnd))
	}
	for i, got := range rep.EndToEnd {
		want, spec := m.EndToEnd[i], endToEnd[i]
		if got.Name != want.Name || got.Unit != want.Unit || got.Bound != want.Bound || spec.Better != want.Better {
			t.Errorf("end-to-end metric %d: manifest %+v, report %+v (%s is better)", i, want, got, spec.Better)
		}
		if want.Bound <= 0 || want.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", want.Name, want.Bound)
		}
	}
	if len(m.PerLayer) != len(rep.PerLayer) {
		t.Fatalf("manifest lists %d per-layer metrics, the report holds %d", len(m.PerLayer), len(rep.PerLayer))
	}
	for i, got := range rep.PerLayer {
		want, spec := m.PerLayer[i], perLayer[i]
		if got.Name != want.Name || got.Unit != want.Unit || spec.Better != want.Better {
			t.Errorf("per-layer metric %d: manifest %+v, report %+v (%s is better)", i, want, got, spec.Better)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
}

// The result line of a run carries exactly the end-to-end metrics when
// untraced and exactly the per-layer metrics when traced.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep, want := sampleReport(), endToEnd
		if traced {
			rep.EndToEnd, want = nil, perLayer
		} else {
			rep.PerLayer = nil
		}
		line, err := rep.resultLine()
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", got)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("traced=%v: result line carries %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, m := range want {
			if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s is missing or has the wrong unit: %+v", traced, m.Name, got)
			}
		}
	}
}

func TestCheckSets(t *testing.T) {
	first, same, worse := sampleReport(), sampleReport(), sampleReport()
	if problems := checkSets([][]*report{{first}, {same}}); len(problems) != 0 {
		t.Errorf("equal sets must agree: %v", problems)
	}
	for i, m := range worse.EndToEnd {
		if m.Name == "op_p50_ms" { // a set that reads better by more than the bound disagrees too
			worse.EndToEnd[i].Value *= 0.5
		}
	}
	for i, m := range worse.PerLayer {
		if m.Name == "executor.nodes_per_pass" {
			worse.PerLayer[i].Value++
		}
		if m.Name == "executor.forward_ms" { // not exact: free to differ
			worse.PerLayer[i].Value *= 2
		}
	}
	if problems := checkSets([][]*report{{first}, {same}, {worse}}); len(problems) != 2 {
		t.Errorf("want one bound and one exact-count problem, got %v", problems)
	}
}
