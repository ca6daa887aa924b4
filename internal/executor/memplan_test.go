package executor

import (
	"context"
	"runtime"
	"testing"

	"deep500/internal/graph"
	"deep500/internal/models"
	"deep500/internal/tensor"
)

// outputSink keeps outputAllocs' map on the heap, as Inference's is.
var outputSink map[string]*tensor.Tensor

// outputAllocs is what a warm planned pass may allocate: one fresh map
// holding one fresh tensor per model output, at the shapes of outs.
func outputAllocs(outs map[string]*tensor.Tensor) float64 {
	return testing.AllocsPerRun(10, func() {
		m := make(map[string]*tensor.Tensor, len(outs))
		for name, t := range outs {
			m[name] = tensor.New(t.Shape()...)
		}
		outputSink = m
	})
}

// TestMemPlanZeroAllocs is the acceptance gate of the static memory plan:
// once the plan is installed, a steady-state forward pass allocates
// exactly the outputs it hands the caller — every activation lands in the
// slab, every bookkeeping structure is reused. LeNet at batch 1 is the
// shape the HTTP serving path runs.
func TestMemPlanZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *graph.Model
		batch int
	}{
		{"mlp/b4", models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16), 4},
		{"lenet/b1", models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3}), 1},
	} {
		e := MustNew(tc.model)
		feeds := map[string]*tensor.Tensor{"x": feedsFor(tc.model, tc.batch, 11)["x"]}
		ctx := context.Background()

		// Pass 1 remembers the shapes, pass 2 profiles and installs the
		// plan, pass 3 settles any lazy bookkeeping (cached input slices,
		// reused maps).
		var out map[string]*tensor.Tensor
		for i := 0; i < 3; i++ {
			var err error
			if out, err = e.Inference(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		}
		if len(e.plans) != 1 || e.plans[0].plan == nil {
			t.Fatalf("%s: want one plan installed after the profiling pass", tc.name)
		}

		want := outputAllocs(out)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.Inference(ctx, feeds); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Fatalf("%s: steady-state planned forward pass allocates %v/run, want %v (the returned outputs)", tc.name, allocs, want)
		}
		t.Logf("%s: %v allocs per planned pass", tc.name, allocs)
	}
}

// plannedCount counts the entries of e that hold a plan.
func plannedCount(e *Executor) int {
	n := 0
	for _, p := range e.plans {
		if p.plan != nil {
			n++
		}
	}
	return n
}

// TestPlanShapeCache pins the per-shape plan cache. Row counts cycling
// 1, 2, 8 each run out of their own plan once seen twice: a pass allocates
// exactly its outputs and returns them bitwise equal to that shape's
// unplanned and profiling passes. A sweep of 20 shapes from large to
// small, each run twice, keeps planCacheSize plans, the most recently
// used, over one slab the size of the largest of them, every planned
// tensor at its slot in that slab (the sweep adds plans that fit the slab,
// and evicts the plan that sized it). A round robin over 20 shapes builds
// no plan at all: every shape is forgotten before it comes back.
func TestPlanShapeCache(t *testing.T) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	e := MustNew(m)
	ctx := context.Background()
	rows := []int{1, 2, 8}
	feeds := make([]map[string]*tensor.Tensor, len(rows))
	profiled := make([]map[string]*tensor.Tensor, len(rows))
	for i, r := range rows {
		feeds[i] = map[string]*tensor.Tensor{"x": feedsFor(m, r, uint64(r))["x"]}
		first, err := e.Inference(ctx, feeds[i])
		if err != nil {
			t.Fatal(err)
		}
		if plannedCount(e) != i {
			t.Fatalf("rows %d: a shape seen once got a plan", r)
		}
		if profiled[i], err = e.Inference(ctx, feeds[i]); err != nil {
			t.Fatal(err)
		}
		for name, f := range first {
			if !sameBits(f, profiled[i][name]) {
				t.Fatalf("rows %d: profiling pass output %q differs from the first pass", r, name)
			}
		}
	}
	if len(e.plans) != len(rows) || plannedCount(e) != len(rows) {
		t.Fatalf("%d entries, %d planned, after profiling %d shapes", len(e.plans), plannedCount(e), len(rows))
	}

	for cycle := 0; cycle < 3; cycle++ {
		for i := range rows {
			out, err := e.Inference(ctx, feeds[i])
			if err != nil {
				t.Fatal(err)
			}
			for name, p := range profiled[i] {
				if !sameBits(p, out[name]) {
					t.Fatalf("rows %d: output %q differs from the profiling pass", rows[i], name)
				}
			}
		}
	}
	want := outputAllocs(profiled[0])
	pass := 0
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := e.Inference(ctx, feeds[pass%len(rows)]); err != nil {
			t.Fatal(err)
		}
		pass++
	})
	if allocs != want {
		t.Fatalf("cycling rows %v allocates %v/pass, want %v (the returned outputs)", rows, allocs, want)
	}
	if len(e.plans) != len(rows) {
		t.Fatalf("%d plans after cycling %d seen shapes", len(e.plans), len(rows))
	}

	sweep := MustNew(m)
	for r := 20; r >= 1; r-- {
		for pass := 0; pass < 2; pass++ {
			if _, err := sweep.Inference(ctx, map[string]*tensor.Tensor{"x": feedsFor(m, r, 1)["x"]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sweep.plans) != planCacheSize || plannedCount(sweep) != planCacheSize {
		t.Fatalf("%d entries, %d planned, after a 20-shape sweep; want %d plans", len(sweep.plans), plannedCount(sweep), planCacheSize)
	}
	largest := 0
	for _, p := range sweep.plans {
		if r := p.feeds["x"][0]; r > planCacheSize {
			t.Errorf("plan for %d rows survived; want only the %d most recent", r, planCacheSize)
		}
		largest = max(largest, p.plan.SlabElems)
	}
	if len(sweep.slab) != largest {
		t.Fatalf("slab holds %d elements, want the largest plan's %d", len(sweep.slab), largest)
	}
	for _, p := range sweep.plans {
		for i, outs := range p.outs {
			for j, o := range outs {
				if o == nil {
					continue
				}
				s := p.plan.Slots[sweep.order[i].Outputs[j]]
				if &o.Data()[0] != &sweep.slab[s.Offset] {
					t.Fatalf("plan for %d rows hands out %s away from its slot in the current slab", p.feeds["x"][0], sweep.order[i].Outputs[j])
				}
			}
		}
	}
	for r := 21; r <= 20+planCacheSize; r++ { // new shapes, once each
		if _, err := sweep.Inference(ctx, map[string]*tensor.Tensor{"x": feedsFor(m, r, 1)["x"]}); err != nil {
			t.Fatal(err)
		}
	}
	if plannedCount(sweep) != 0 || len(sweep.slab) != 0 {
		t.Fatalf("%d plans and a %d-element slab left after new shapes displaced every plan", plannedCount(sweep), len(sweep.slab))
	}

	robin := MustNew(m)
	for round := 0; round < 3; round++ {
		for r := 1; r <= 20; r++ {
			if _, err := robin.Inference(ctx, map[string]*tensor.Tensor{"x": feedsFor(m, r, 1)["x"]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(robin.plans) != planCacheSize || plannedCount(robin) != 0 || len(robin.slab) != 0 {
		t.Fatalf("round robin over 20 shapes: %d entries, %d planned, slab %d elements; want %d, 0, 0",
			len(robin.plans), plannedCount(robin), len(robin.slab), planCacheSize)
	}
}

// TestPlanOneOffShapeKeepsSlab: one large batch among batch-1 traffic never
// gets a plan, so the slab stays the batch-1 plan's size, and a pass at the
// large shape is bitwise equal to a fresh executor's.
func TestPlanOneOffShapeKeepsSlab(t *testing.T) {
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3})
	e := MustNew(m)
	ctx := context.Background()
	one := map[string]*tensor.Tensor{"x": feedsFor(m, 1, 1)["x"]}
	big := map[string]*tensor.Tensor{"x": feedsFor(m, 64, 2)["x"]}
	for i := 0; i < 2; i++ {
		if _, err := e.Inference(ctx, one); err != nil {
			t.Fatal(err)
		}
	}
	small := e.planFor(feedKey(one), false, one).plan.SlabElems
	got, err := e.Inference(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustNew(m).Inference(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !sameBits(w, got[name]) {
			t.Fatalf("output %q of the one-off batch differs from a fresh executor's", name)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := e.Inference(ctx, one); err != nil {
			t.Fatal(err)
		}
	}
	if p := e.planFor(feedKey(big), false, big); p == nil || p.plan != nil {
		t.Fatal("the one-off batch shape was planned, or not remembered")
	}
	if len(e.slab) != small {
		t.Fatalf("slab holds %d elements after a one-off batch, want the batch-1 plan's %d", len(e.slab), small)
	}
}

// BenchmarkPlannedForward measures a steady-state planned forward pass;
// run with -benchmem to see that it allocates only its outputs.
func BenchmarkPlannedForward(b *testing.B) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	e := MustNew(m)
	feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(11), 0, 1, 4, 1, 8, 8)}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Inference(ctx, feeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Inference(ctx, feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShapeTraffic measures inference under feed-shape sequences that
// a fixed-shape benchmark never shows: one shape, two alternating shapes,
// more recurring shapes than the executor remembers (in turn, or in a
// seeded random order), and batch-1 traffic with a one-off large batch
// every 16th pass. It uses only New and Inference, so the same function
// runs against an executor without a plan cache for comparison:
//
//	go test ./internal/executor -run '^$' -bench ShapeTraffic -benchmem -cpu 1
func BenchmarkShapeTraffic(b *testing.B) {
	robin := func(n int) func(i int) int { return func(i int) int { return 1 + i%n } }
	random20 := func(i int) int { return 1 + int(uint64(i)*0x9E3779B97F4A7C15>>59)%20 }
	outlier := func(i int) int {
		if i%16 == 15 {
			return 64 + i/16%32 // 32 large row counts, each back every 512 passes
		}
		return 1
	}
	nets := []struct {
		name string
		m    *graph.Model
	}{
		{"mlp", models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)},
		{"lenet", models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3})},
	}
	patterns := []struct {
		name string
		rows func(i int) int
	}{
		{"fixed-1", robin(1)}, {"alternate-1-2", robin(2)}, {"robin-9", robin(9)},
		{"robin-20", robin(20)}, {"random-20", random20}, {"one-off-every-16", outlier},
	}
	for _, net := range nets {
		for _, pat := range patterns {
			b.Run(net.name+"/"+pat.name, func(b *testing.B) {
				e := MustNew(net.m)
				feeds := map[int]map[string]*tensor.Tensor{}
				feed := func(rows int) map[string]*tensor.Tensor {
					if feeds[rows] == nil {
						x := net.m.Inputs[0].Shape
						shape := append([]int{rows}, x[1:]...)
						feeds[rows] = map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(uint64(rows)), 0, 1, shape...)}
					}
					return feeds[rows]
				}
				for i := 0; i < 512; i++ {
					feed(pat.rows(i))
				}
				ctx := context.Background()
				for i := 0; i < 64; i++ {
					if _, err := e.Inference(ctx, feed(pat.rows(i))); err != nil {
						b.Fatal(err)
					}
				}
				rows := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := pat.rows(64 + i)
					rows += r
					if _, err := e.Inference(ctx, feed(r)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// TestMemPlanRebuildOnShapeChange asserts the second pass at new feed
// shapes plans them, a return to a planned shape reuses its plan, and every
// output is bitwise equal to a fresh executor's.
func TestMemPlanRebuildOnShapeChange(t *testing.T) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, Seed: 7}, 32, 16)
	planned := MustNew(m)
	ctx := context.Background()

	for _, batch := range []int{2, 2, 4, 4, 2} {
		rng := tensor.NewRNG(uint64(batch))
		feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(rng, 0, 1, batch, 1, 8, 8)}
		got, err := planned.Inference(ctx, feeds)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want, err := MustNew(m).Inference(ctx, feeds)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range want {
			if g, ok := got[name]; !ok || !sameBits(w, g) {
				t.Fatalf("batch %d: output %q differs from a fresh executor's", batch, name)
			}
		}
	}
	if n := plannedCount(planned); n != 2 {
		t.Fatalf("%d plans cached for 2 distinct shapes seen twice each", n)
	}
}

// TestMemPlanReusesSlab asserts the planner actually overlaps intermediate
// lifetimes — the slab must be smaller than the sum of all planned
// activations — and pins the exact slab and no-reuse footprints, so a
// planner change that loses (or gains) reuse shows up as a diff here.
// Model outputs are the caller's and take no slab space.
func TestMemPlanReusesSlab(t *testing.T) {
	headless := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, Seed: 3}
	withHead := models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 500}
	for _, tc := range []struct {
		name          string
		model         *graph.Model
		batch         int
		slab, noReuse int64
	}{
		{"lenet/headless/b2", models.LeNet(headless), 2, 75264, 119936},
		{"mlp-256-128/b8", models.MLP(withHead, 256, 128), 8, 33280, 49664},
		{"lenet/b8", models.LeNet(withHead), 8, 301056, 479744},
	} {
		e := MustNew(tc.model)
		for pass := 0; pass < 2; pass++ {
			if _, err := e.Inference(context.Background(), feedsFor(tc.model, tc.batch, 5)); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if len(e.plans) != 1 || e.plans[0].plan == nil {
			t.Fatalf("%s: want one plan installed", tc.name)
		}
		plan := e.plans[0].plan
		if plan.SlabElems >= plan.NoReuseElems {
			t.Fatalf("%s: planner found no reuse: slab %d elems, no-reuse %d", tc.name, plan.SlabElems, plan.NoReuseElems)
		}
		if slab, noReuse := plan.SlabBytes(), plan.NoReuseBytes(); slab != tc.slab || noReuse != tc.noReuse {
			t.Errorf("%s: slab %d B, no-reuse %d B; want %d B, %d B", tc.name, slab, noReuse, tc.slab, tc.noReuse)
		}
		if len(e.slab) != plan.SlabElems {
			t.Errorf("%s: slab holds %d elements, plan needs %d", tc.name, len(e.slab), plan.SlabElems)
		}
		t.Logf("%s: %s", tc.name, plan)
	}
}

// TestMemPlanTrainingEntries asserts that inference and training passes at
// the same feed shapes never share a cache entry, in either order: each
// kind's first pass is remembered in an entry of its own and its second
// one plans it. A training plan keeps every activation to the end of the
// pass, so it reuses no slab space; its planned passes give gradients
// bitwise equal to a fresh executor's, and the inference plan keeps
// serving inference between them.
func TestMemPlanTrainingEntries(t *testing.T) {
	m := models.MLP(models.Config{Classes: 10, Channels: 1, Height: 8, Width: 8, WithHead: true, Seed: 7}, 32, 16)
	feeds := feedsFor(m, 4, 11)
	ctx := context.Background()
	ref := MustNew(m)
	if _, err := ref.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
		t.Fatal(err)
	}
	want := ref.Network().Gradients()
	key := feedKey(feeds)
	entries := func(e *Executor) (inf, train *shapePlan) {
		t.Helper()
		inf, train = e.planFor(key, false, feeds), e.planFor(key, true, feeds)
		if inf != nil && inf == train {
			t.Fatal("an inference and a training pass share one entry")
		}
		return inf, train
	}
	infer := func(e *Executor) map[string]*tensor.Tensor {
		t.Helper()
		out, err := e.Inference(ctx, feeds)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	train := func(e *Executor) {
		t.Helper()
		if _, err := e.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
			t.Fatal(err)
		}
		got := e.Network().Gradients()
		for i, pg := range want {
			if !sameBits(pg.Grad, got[i].Grad) {
				t.Fatalf("gradient %q differs from a fresh executor's", pg.Name)
			}
		}
	}

	inferFirst := MustNew(m)
	firstOut := infer(inferFirst)
	infer(inferFirst)
	train(inferFirst)
	if inf, tr := entries(inferFirst); inf == nil || inf.plan == nil || tr == nil || tr.plan != nil {
		t.Fatal("the first training pass after a planned inference did not get an unplanned entry of its own")
	}
	for i := 0; i < 3; i++ {
		train(inferFirst)
		out := infer(inferFirst)
		for name, f := range firstOut {
			if !sameBits(f, out[name]) {
				t.Fatalf("output %q differs from the first inference after training passes", name)
			}
		}
	}
	inf, tr := entries(inferFirst)
	if len(inferFirst.plans) != 2 || inf == nil || inf.plan == nil || tr == nil || tr.plan == nil {
		t.Fatalf("%d entries; want a planned inference and a planned training entry", len(inferFirst.plans))
	}
	if tr.plan.SlabElems != tr.plan.NoReuseElems || len(tr.plan.Slots) == 0 {
		t.Fatalf("training plan: slab %d elements for %d planned; want no reuse", tr.plan.SlabElems, tr.plan.NoReuseElems)
	}
	for name, s := range tr.plan.Slots {
		if s.Death != len(inferFirst.order) {
			t.Fatalf("training plan frees %q after node %d; want it live to the end of the pass", name, s.Death)
		}
	}
	if inf.plan.SlabElems >= inf.plan.NoReuseElems {
		t.Fatal("the inference plan lost its interval reuse")
	}

	trainFirst := MustNew(m)
	train(trainFirst)
	train(trainFirst)
	infer(trainFirst)
	if inf, tr := entries(trainFirst); tr == nil || tr.plan == nil || inf == nil || inf.plan != nil {
		t.Fatal("the first inference after a planned training pass did not get an unplanned entry of its own")
	}
}

// TestMemPlanTrainingAllocs is the training side of the zero-alloc gate:
// once warm, a LeNet training pass at batch 32 (the train_lenet workload's
// step) allocates less than one batch-sized activation, conv1's output.
// Activations come from the training plan and every operator's gradients
// from its own buffers; what is left is the model outputs and small
// bookkeeping (a few KB, most of it the kernels' parallel dispatch).
func TestMemPlanTrainingAllocs(t *testing.T) {
	m := models.LeNet(models.Config{Classes: 10, Channels: 1, Height: 28, Width: 28, WithHead: true, Seed: 3})
	e := MustNew(m)
	feeds := feedsFor(m, 32, 5)
	ctx := context.Background()
	pass := func() {
		if _, err := e.InferenceAndBackprop(ctx, feeds, "loss"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		pass()
	}
	tr := e.planFor(feedKey(feeds), true, feeds)
	if tr == nil || tr.plan == nil {
		t.Fatal("no training plan after four training passes")
	}
	var conv1 int64
	for _, n := range e.order {
		if n.OpType == "Conv" {
			conv1 = int64(tr.plan.Slots[n.Outputs[0]].Elems) * 4
			break
		}
	}
	if conv1 == 0 {
		t.Fatal("the training plan does not place conv1's output")
	}
	const passes = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perPass := int64(after.TotalAlloc-before.TotalAlloc) / passes
	if perPass >= conv1 {
		t.Fatalf("a warm training pass allocates %d B; want less than conv1's output, %d B", perPass, conv1)
	}
	t.Logf("warm training pass: %d B allocated, conv1's output %d B, training slab %d KiB",
		perPass, conv1, tr.plan.SlabBytes()/1024)
}

// viewOp returns a zero-copy view of its input, as the torchgo profile's
// Split does; it does not draw from an allocator.
type viewOp struct{}

func (viewOp) Name() string { return "View" }
func (viewOp) Forward(in []*tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.From(in[0].Data(), in[0].Shape()...)}
}
func (viewOp) Backward(g, in, out []*tensor.Tensor) []*tensor.Tensor { return []*tensor.Tensor{g[0]} }
func (viewOp) FLOPs([]*tensor.Tensor) int64                          { return 0 }

// TestPlanKeepsViewedInputsOffTheSlab: a node that returns a view of its
// input keeps that input off the slab. Here a's last consumer is the view
// node, so a slab slot for a would be free for b while the view v, read
// again at the end, still aliases it.
func TestPlanKeepsViewedInputsOffTheSlab(t *testing.T) {
	m := graph.NewModel("plan-view")
	m.AddInput("x", 4, 8)
	m.AddNode(graph.NewNode("Relu", "n0", []string{"x"}, []string{"a"}))
	m.AddNode(graph.NewNode("Relu", "view", []string{"a"}, []string{"v"}))
	m.AddNode(graph.NewNode("Neg", "n2", []string{"v"}, []string{"b"}))
	m.AddNode(graph.NewNode("Relu", "n3", []string{"b"}, []string{"c"}))
	m.AddNode(graph.NewNode("Add", "n4", []string{"c", "v"}, []string{"d"}))
	m.AddOutput("d")
	withView := func() *Executor {
		e := MustNew(m)
		e.SetOp(m.Nodes[1], viewOp{})
		return e
	}
	feeds := map[string]*tensor.Tensor{"x": tensor.RandNormal(tensor.NewRNG(3), 0, 1, 4, 8)}
	ctx := context.Background()
	want, err := withView().Inference(ctx, feeds)
	if err != nil {
		t.Fatal(err)
	}
	e := withView()
	for pass := 1; pass <= 3; pass++ {
		got, err := e.Inference(ctx, feeds)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(want["d"], got["d"]) {
			t.Fatalf("pass %d: output differs from a fresh executor's", pass)
		}
	}
	if _, ok := e.plans[0].plan.Slots["a"]; ok {
		t.Fatal("the viewed activation a was placed in the slab")
	}
}
