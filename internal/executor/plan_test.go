package executor

import (
	"testing"

	"deep500/internal/graph"
)

// chainModel is x → a → b → c(output): three equal-size activations whose
// lifetimes overlap pairwise, so a two-slot slab suffices.
func chainModel() *graph.Model {
	m := graph.NewModel("plan-chain")
	m.AddInput("x", 10, 10)
	m.AddNode(graph.NewNode("Relu", "n0", []string{"x"}, []string{"a"}))
	m.AddNode(graph.NewNode("Relu", "n1", []string{"a"}, []string{"b"}))
	m.AddNode(graph.NewNode("Relu", "n2", []string{"b"}, []string{"c"}))
	m.AddOutput("c")
	return m
}

// diamondModel is x → a, then a → b and a → c, then (b, c) → d(output).
func diamondModel() *graph.Model {
	m := graph.NewModel("plan-diamond")
	m.AddInput("x", 10, 10)
	m.AddNode(graph.NewNode("Relu", "n0", []string{"x"}, []string{"a"}))
	m.AddNode(graph.NewNode("Relu", "n1", []string{"a"}, []string{"b"}))
	m.AddNode(graph.NewNode("Neg", "n2", []string{"a"}, []string{"c"}))
	m.AddNode(graph.NewNode("Add", "n3", []string{"b", "c"}, []string{"d"}))
	m.AddOutput("d")
	return m
}

func sizesFor(names []string, elems int) map[string]int {
	s := make(map[string]int, len(names))
	for _, n := range names {
		s[n] = elems
	}
	return s
}

// checkNoLiveOverlap asserts that no two values with overlapping liveness
// intervals share slab storage — the planner's core invariant.
func checkNoLiveOverlap(t *testing.T, p *MemPlan) {
	t.Helper()
	type named struct {
		name string
		s    PlanSlot
	}
	var slots []named
	for n, s := range p.Slots {
		slots = append(slots, named{n, s})
	}
	for i := 0; i < len(slots); i++ {
		for j := i + 1; j < len(slots); j++ {
			a, b := slots[i], slots[j]
			liveTogether := a.s.Birth <= b.s.Death && b.s.Birth <= a.s.Death
			memOverlap := a.s.Offset < b.s.Offset+b.s.Elems && b.s.Offset < a.s.Offset+a.s.Elems
			if liveTogether && memOverlap {
				t.Errorf("live values %q %+v and %q %+v share slab storage", a.name, a.s, b.name, b.s)
			}
		}
	}
}

func TestPlanChainReuse(t *testing.T) {
	m := chainModel()
	p, err := PlanMemory(m, sizesFor([]string{"a", "b", "c"}, 100), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Slots) != 3 {
		t.Fatalf("planned %d values, want 3", len(p.Slots))
	}
	if p.NoReuseElems != 300 {
		t.Fatalf("NoReuseElems = %d, want 300", p.NoReuseElems)
	}
	// a is dead once n1 ran, so c can reuse its slot: slab holds 2 values.
	if p.SlabElems != 200 {
		t.Fatalf("SlabElems = %d, want 200 (a's slot reused for c)", p.SlabElems)
	}
	checkNoLiveOverlap(t, p)
	if p.Slots["c"].Offset != p.Slots["a"].Offset {
		t.Fatalf("c placed at %d, want a's slot %d", p.Slots["c"].Offset, p.Slots["a"].Offset)
	}
}

func TestPlanDiamond(t *testing.T) {
	m := diamondModel()
	p, err := PlanMemory(m, sizesFor([]string{"a", "b", "c", "d"}, 100), false)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLiveOverlap(t, p)
	// a stays live until n2 (second branch), so b and c cannot reuse it;
	// d can. Peak live set is {a, b, c} → slab of 3.
	if p.SlabElems != 300 {
		t.Fatalf("SlabElems = %d, want 300", p.SlabElems)
	}
	if got := p.Slots["d"].Offset; got != p.Slots["a"].Offset {
		t.Fatalf("d placed at %d, want a's slot %d", got, p.Slots["a"].Offset)
	}
	// Model output d must be recorded live to the end of the pass.
	if p.Slots["d"].Death != len(m.Nodes) {
		t.Fatalf("output death = %d, want %d", p.Slots["d"].Death, len(m.Nodes))
	}
}

// TestPlanMixedSizesNoLiveOverlap plans values of unequal sizes, where
// best-fit splits and partial reuse happen, and checks that no two live
// values share storage — the property that makes a topological-order
// interpreter plan-safe with no extra synchronization.
func TestPlanMixedSizesNoLiveOverlap(t *testing.T) {
	for _, m := range []*graph.Model{chainModel(), diamondModel()} {
		p, err := PlanMemory(m, map[string]int{"a": 100, "b": 60, "c": 40, "d": 100}, false)
		if err != nil {
			t.Fatal(err)
		}
		checkNoLiveOverlap(t, p)
	}
}

// TestPlanCoalescing frees two adjacent small activations and checks a
// larger successor can occupy their combined range.
func TestPlanCoalescing(t *testing.T) {
	m := graph.NewModel("plan-coalesce")
	m.AddInput("x", 4)
	m.AddNode(graph.NewNode("Relu", "n0", []string{"x"}, []string{"a"}))
	m.AddNode(graph.NewNode("Relu", "n1", []string{"x"}, []string{"b"}))
	m.AddNode(graph.NewNode("Add", "n2", []string{"a", "b"}, []string{"c"}))
	m.AddNode(graph.NewNode("Relu", "n3", []string{"c"}, []string{"d"}))
	m.AddNode(graph.NewNode("Relu", "n4", []string{"d"}, []string{"e"}))
	m.AddOutput("e")
	// a and b (50 each) die after n2; d (80) fits only in their coalesced
	// 100-element range.
	p, err := PlanMemory(m, map[string]int{"a": 50, "b": 50, "c": 100, "d": 80, "e": 10}, false)
	if err != nil {
		t.Fatal(err)
	}
	checkNoLiveOverlap(t, p)
	if p.SlabElems != 200 {
		t.Fatalf("SlabElems = %d, want 200 (d reuses coalesced a+b block)", p.SlabElems)
	}
	if p.Slots["d"].Offset != 0 {
		t.Fatalf("d offset = %d, want 0", p.Slots["d"].Offset)
	}
}

// TestPlanSkipsUnknownSizes leaves values without a size entry unplanned.
func TestPlanSkipsUnknownSizes(t *testing.T) {
	p, err := PlanMemory(chainModel(), map[string]int{"a": 100, "c": 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Slots["b"]; ok {
		t.Fatal("value without a size entry was planned")
	}
	if len(p.Slots) != 2 {
		t.Fatalf("planned %d values, want 2", len(p.Slots))
	}
	checkNoLiveOverlap(t, p)
}
