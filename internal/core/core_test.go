package core

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deep500/internal/datasets"
	"deep500/internal/graph"
	"deep500/internal/kernels"
	"deep500/internal/metrics"
	"deep500/internal/models"
	"deep500/internal/training"
)

var quick = Options{Quick: true, Seed: 7}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "x", Headers: []string{"a", "b"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x ==", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestCapabilityTables(t *testing.T) {
	t1 := RenderTableI()
	if len(t1.Rows) != len(TableI) {
		t.Fatal("table I rows")
	}
	// Deep500 row must be full across all columns
	last := TableI[len(TableI)-1]
	if !strings.Contains(last.Name, "Deep500") {
		t.Fatal("Deep500 row missing")
	}
	for _, c := range TableIColumns {
		if last.Caps[c] != Full {
			t.Fatalf("Deep500 missing capability %s", c)
		}
	}
	t2 := RenderTableII()
	if len(t2.Rows) != len(TableII) {
		t.Fatal("table II rows")
	}
	for i, b := range TableII {
		if row := t2.Rows[i]; row[len(row)-1] != b.Remarks || len(row) != len(t2.Headers) {
			t.Fatalf("table II row %d ends %q, want its remarks %q", i, row[len(row)-1], b.Remarks)
		}
	}
	f2 := RenderFig2()
	if len(f2.Rows) != len(Fig2Survey) {
		t.Fatal("fig 2 rows")
	}
	// survey medians must be nondecreasing over time
	for i := 1; i < len(Fig2Survey); i++ {
		if Fig2Survey[i].Med < Fig2Survey[i-1].Med {
			t.Fatal("node counts should grow over time")
		}
	}
}

func TestFig6ConvShapes(t *testing.T) {
	// Wall-clock ordering assertions flake when the suite shares a loaded
	// machine; retry the whole measurement before declaring a regression.
	const attempts = 3
	var res Fig6Result
	for attempt := 1; ; attempt++ {
		var err error
		res, err = RunFig6Conv(context.Background(), quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.All) == 0 {
			t.Fatal("no rows")
		}
		medians := map[string]float64{}
		for _, r := range res.All {
			medians[r.Backend+"/"+r.Mode] = r.Summary.Median
		}
		// DeepBench must beat tfgo; Deep500 wrapping must stay within 50% of
		// native even at quick scale (paper: within CIs).
		ok := medians["deepbench/native"] < medians["tfgo/native"]
		for _, backend := range []string{"tfgo", "torchgo", "cf2go"} {
			n, d := medians[backend+"/native"], medians[backend+"/deep500"]
			if d > n*1.5 {
				ok = false
			}
		}
		if ok {
			break
		}
		if attempt == attempts {
			t.Fatalf("Fig6 ordering violated after %d attempts: %v", attempts, medians)
		}
	}
	tbl := RenderFig6(res)
	if len(tbl.Rows) != len(res.All) {
		t.Fatal("render mismatch")
	}
}

func TestFig6GemmRuns(t *testing.T) {
	res, err := RunFig6Gemm(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 7 { // 3 backends × 2 modes + deepbench native
		t.Fatalf("rows = %d", len(res.All))
	}
	for _, r := range res.All {
		if r.Summary.Median <= 0 {
			t.Fatalf("%s/%s: non-positive median", r.Backend, r.Mode)
		}
	}
}

func TestFig6Accuracy(t *testing.T) {
	rows := RunFig6Accuracy(quick)
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	anyNonzero := false
	for _, r := range rows {
		if r.MedianLInf < 0 || r.MedianLInf > 1e-2 {
			t.Fatalf("%s: linf %g outside plausible fp32 band", r.Backend, r.MedianLInf)
		}
		if r.MedianLInf > 0 {
			anyNonzero = true
		}
	}
	// at least the Winograd path must differ from direct convolution
	if !anyNonzero {
		t.Fatal("all algorithms bitwise identical to reference — measurement vacuous")
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := RunFig7(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]Fig7Cell{}
	for _, c := range res.Cells {
		cells[c.Backend+"/"+c.Variant] = c
	}
	if !cells["torchgo/original"].OOM {
		t.Fatal("torchgo original should OOM")
	}
	if cells["torchgo/microbatched"].OOM {
		t.Fatal("torchgo microbatched should fit")
	}
	if cells["tfgo/original"].OOM || cells["tfgo/microbatched"].OOM {
		t.Fatal("tfgo should fit both variants")
	}
	if cells["tfgo/microbatched"].TimeSeconds <= cells["tfgo/original"].TimeSeconds {
		t.Logf("note: tfgo microbatched (%v) not slower than original (%v) at quick scale",
			cells["tfgo/microbatched"].TimeSeconds, cells["tfgo/original"].TimeSeconds)
	}
	if res.Transformed == 0 {
		t.Fatal("no conv nodes transformed")
	}
	RenderFig7(res)
}

// TestOverheadSmall checks that instrumentation observes a training loop
// without perturbing it: over one seeded epoch the native and instrumented
// runners produce bitwise-equal loss curves, and the instrumented one fires
// its per-operator event exactly once per node per step and records one
// overhead sample per pass. The wall-clock overhead fraction is reported by
// the §V-D experiment, not gated here.
func TestOverheadSmall(t *testing.T) {
	s := newOverheadSetup(quick)
	fo := metrics.NewFrameworkOverhead()
	ev := fo.Events()
	ops, afterOp := 0, ev.AfterOp
	ev.AfterOp = func(n *graph.Node, d time.Duration) { ops++; afterOp(n, d) }
	native, inst := s.runner(nil), s.runner(ev)
	var nativeLoss, instLoss []float64
	native.AfterStep = func(_ int, loss, _ float64) { nativeLoss = append(nativeLoss, loss) }
	inst.AfterStep = func(_ int, loss, _ float64) { instLoss = append(instLoss, loss) }
	for _, r := range []*training.Runner{native, inst} {
		if _, err := r.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	steps := len(instLoss)
	if steps == 0 || len(nativeLoss) != steps {
		t.Fatalf("native ran %d steps, instrumented %d", len(nativeLoss), steps)
	}
	for i := range instLoss {
		if math.Float64bits(nativeLoss[i]) != math.Float64bits(instLoss[i]) {
			t.Fatalf("step %d: instrumented loss %v, native %v", i, instLoss[i], nativeLoss[i])
		}
	}
	if nodes := len(models.MLP(s.cfg, s.hidden).Nodes); ops != nodes*steps {
		t.Fatalf("%d operator events, want %d nodes × %d steps", ops, nodes, steps)
	}
	if n := fo.AbsoluteSampler.Summarize().N; n != steps {
		t.Fatalf("%d overhead samples, want one per step (%d)", n, steps)
	}
}

func TestFig8Shapes(t *testing.T) {
	dir := t.TempDir()
	res, err := RunFig8(quick, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Small) != 8 {
		t.Fatalf("small rows %d", len(res.Small))
	}
	byName := map[string]float64{}
	for _, r := range append(res.Small, res.Large...) {
		byName[r.Dataset+"/"+r.Generator] = r.Summary.Median
	}
	// ImageNet real loading (JPEG decode) must be much slower than synth.
	synth := byName["imagenet/synth"]
	oneNode := 0.0
	for _, r := range res.Large {
		if strings.Contains(r.Generator, "files+1nodes") {
			oneNode = r.Summary.Median
			break
		}
	}
	if oneNode <= synth {
		t.Fatalf("imagenet real %v not slower than synth %v", oneNode, synth)
	}
	RenderFig8(res)
}

func TestTable3Shapes(t *testing.T) {
	dir := t.TempDir()
	rows, err := RunTable3(quick, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows %d", len(rows))
	}
	cell := func(kind, pipe string) float64 {
		for _, r := range rows {
			if strings.Contains(r.DataKind, kind) && r.Pipeline == pipe {
				return r.Seconds
			}
		}
		t.Fatalf("missing cell %s/%s", kind, pipe)
		return 0
	}
	// Every cell must carry a real (positive) measurement.
	cell("images (sequential)", "tar+basic(PIL)")
	cell("images (sequential)", "tar+turbo")
	RenderTable3(rows)
}

// TestTable3TurboBeatsBasic asserts the Table III headline — the parallel
// ("turbo") decoder outperforms the sequential ("PIL") decoder on full
// batches. A single wall-clock comparison of two medians proved flaky on
// loaded CI machines, so this compares best-of-N timings and retries the
// whole comparison a few times before declaring a regression; on
// single-CPU machines the decoders are equivalent by construction and the
// comparison is skipped.
func TestTable3TurboBeatsBasic(t *testing.T) {
	// Turbo's fan-out is bounded by the shared pool's budget (fixed at
	// package init), not the current GOMAXPROCS — consult the pool.
	if kernels.Default.Workers() < 2 {
		t.Skip("turbo decoder degenerates to basic with a single worker")
	}
	dir := t.TempDir()
	spec := datasets.Spec{Name: "t3flake", H: 64, W: 64, C: 3, Classes: 10}
	const n = 96
	tarPath := filepath.Join(dir, "t3.tar")
	if err := datasets.WriteIndexedTar(tarPath, spec, n, 7); err != nil {
		t.Fatal(err)
	}
	it, err := datasets.OpenIndexedTar(tarPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	bestOf := func(reps int, dec datasets.Decoder) float64 {
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			if _, _, err := datasets.TarBatch(it, idx, dec); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start).Seconds(); d < best {
				best = d
			}
		}
		return best
	}
	bestOf(1, datasets.TurboDecoder{}) // warmup (worker pool, page cache)
	const attempts = 5
	for attempt := 1; ; attempt++ {
		basic := bestOf(3, datasets.BasicDecoder{})
		turbo := bestOf(3, datasets.TurboDecoder{})
		if turbo < basic {
			return
		}
		if attempt == attempts {
			t.Fatalf("turbo %v not faster than basic %v after %d best-of-3 attempts",
				turbo, basic, attempts)
		}
	}
}

func TestFig9Convergence(t *testing.T) {
	curves, err := RunFig9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 9 {
		t.Fatalf("curves %d", len(curves))
	}
	for _, c := range curves {
		if len(c.TestAcc) == 0 || len(c.LossCurve) == 0 {
			t.Fatalf("%s: empty curves", c.Name)
		}
	}
	RenderConvergence("fig9", curves)
}

func TestFig10Convergence(t *testing.T) {
	curves, err := RunFig10(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves %d", len(curves))
	}
}

func TestFig11DivergenceGrows(t *testing.T) {
	points, err := RunFig11(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("points %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.TotalL2 <= first.TotalL2 {
		t.Fatalf("divergence did not grow: %g -> %g", first.TotalL2, last.TotalL2)
	}
	RenderFig11(points)
}

func TestFig12StrongShapes(t *testing.T) {
	rows, err := RunFig12Strong(quick)
	if err != nil {
		t.Fatal(err)
	}
	tput := map[string]map[int]float64{}
	vol := map[string]map[int]float64{}
	for _, r := range rows {
		if tput[r.Scheme] == nil {
			tput[r.Scheme] = map[int]float64{}
			vol[r.Scheme] = map[int]float64{}
		}
		tput[r.Scheme][r.Nodes] = r.Throughput
		vol[r.Scheme][r.Nodes] = r.PerNodeGB
	}
	maxNodes := 8
	// CDSGD must beat the Python-profile reference DSGD at scale.
	if tput["CDSGD"][maxNodes] <= tput["REF-dsgd"][maxNodes] {
		t.Fatalf("CDSGD %v not faster than REF-dsgd %v",
			tput["CDSGD"][maxNodes], tput["REF-dsgd"][maxNodes])
	}
	// DSGD and CDSGD exhibit the same per-node communication volume.
	if d := vol["CDSGD"][maxNodes] - vol["REF-dsgd"][maxNodes]; d > 0.01 || d < -0.01 {
		t.Fatalf("CDSGD volume %v != REF-dsgd volume %v", vol["CDSGD"][maxNodes], vol["REF-dsgd"][maxNodes])
	}
	// SparCML ships fewer bytes than dense DSGD at small scale.
	if vol["SparCML"][4] >= vol["CDSGD"][4] {
		t.Fatalf("SparCML volume %v not below CDSGD %v", vol["SparCML"][4], vol["CDSGD"][4])
	}
	RenderFig12("strong", rows)
}

func TestFig12WeakShapes(t *testing.T) {
	rows, err := RunFig12Weak(quick)
	if err != nil {
		t.Fatal(err)
	}
	tput := map[string]map[int]float64{}
	for _, r := range rows {
		if tput[r.Scheme] == nil {
			tput[r.Scheme] = map[int]float64{}
		}
		tput[r.Scheme][r.Nodes] = r.Throughput
	}
	// weak scaling: CDSGD throughput must grow with node count
	if tput["CDSGD"][16] <= tput["CDSGD"][1] {
		t.Fatalf("CDSGD weak scaling flat: %v", tput["CDSGD"])
	}
	// decentralized allreduce must out-scale the parameter server
	if tput["CDSGD"][16] <= tput["TF-PS"][16] {
		t.Fatalf("CDSGD %v not above TF-PS %v at 16 nodes", tput["CDSGD"][16], tput["TF-PS"][16])
	}
}

func TestFig12FailureEmulation(t *testing.T) {
	o := Options{Quick: false, Seed: 3}
	// run only the failing points: craft a direct call
	rows, err := runFig12(o, []int{256}, func(int) int { return 1 }, 1, []string{"TF-PS", "Horovod"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Failed == "" {
			t.Fatalf("%s at 256 should report the paper-observed failure", r.Scheme)
		}
	}
}

func TestValidationSuiteAllPass(t *testing.T) {
	results, err := RunValidationSuite(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 9 {
		t.Fatalf("only %d validation checks ran", len(results))
	}
	for _, r := range results {
		if !r.Passed {
			t.Errorf("%v", r)
		}
	}
}
