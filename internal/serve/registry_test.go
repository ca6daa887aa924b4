package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"deep500/internal/executor"
	"deep500/internal/graph"
	"deep500/internal/tensor"
)

func testSpec(m *graph.Model, version string, priority int, srvOpts Options) ModelSpec {
	return ModelSpec{
		Version:  version,
		Priority: priority,
		Build: func() (*Server, error) {
			o := srvOpts
			o.NewExecutor = execFactory(m)
			return New(o)
		},
	}
}

// TestRegistryRoutesAndLifecycle drives the basic multi-tenant contract:
// two models served from one registry answer with their own outputs,
// Models() reports both sorted with signatures, and an unload makes the
// name unknown while leaving the other tenant serving.
func TestRegistryRoutesAndLifecycle(t *testing.T) {
	zoo := zooModels()
	mlp, lenet := zoo["mlp"], zoo["lenet"]
	r := NewRegistry()
	defer r.Close(context.Background())
	if err := r.Load("mlp", testSpec(mlp, "v1", 0, Options{})); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("lenet", testSpec(lenet, "v1", 0, Options{})); err != nil {
		t.Fatal(err)
	}

	for name, m := range map[string]*graph.Model{"mlp": mlp, "lenet": lenet} {
		in := inputFor(m, 2, 11)
		outs, err := r.Infer(context.Background(), name, map[string]*tensor.Tensor{"x": in})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := executor.MustNew(m).Inference(context.Background(), map[string]*tensor.Tensor{"x": in})
		if err != nil {
			t.Fatal(err)
		}
		for oname, w := range ref {
			if d := maxAbsDiff(t, w, outs[oname]); d > 1e-5 {
				t.Fatalf("%s output %q diverges via registry: %g", name, oname, d)
			}
		}
	}

	list := r.Models()
	if len(list) != 2 || list[0].Name != "lenet" || list[1].Name != "mlp" {
		t.Fatalf("Models() = %+v, want lenet,mlp", list)
	}
	if len(list[0].Inputs) == 0 || list[0].Inputs[0].Name != "x" {
		t.Fatalf("model status carries no input signature: %+v", list[0])
	}
	st := r.Stats()
	if st.Models != 2 || st.Loads != 2 || st.Aggregate.Requests != 2 {
		t.Fatalf("registry stats %+v, want 2 models / 2 loads / 2 requests", st)
	}

	if err := r.Unload("lenet"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Infer(context.Background(), "lenet", map[string]*tensor.Tensor{"x": inputFor(lenet, 1, 1)}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unloaded model answered %v, want ErrUnknownModel", err)
	}
	if _, err := r.Infer(context.Background(), "mlp", map[string]*tensor.Tensor{"x": inputFor(mlp, 1, 1)}); err != nil {
		t.Fatalf("surviving tenant broken after unload: %v", err)
	}
}

// TestRegistrySwapDrainsOldVersion is the atomic-swap contract: a request
// in flight on v1 when v2 is loaded completes on v1 (drained, not
// dropped), while admissions after the swap route to v2.
func TestRegistrySwapDrainsOldVersion(t *testing.T) {
	m := chaosModel()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	r := NewRegistry()
	defer r.Close(context.Background())

	v1 := ModelSpec{Version: "v1", Build: func() (*Server, error) {
		return New(Options{MaxBatch: 1, NewExecutor: gatedFactory(m, entered, gate)})
	}}
	if err := r.Load("model", v1); err != nil {
		t.Fatal(err)
	}

	// Wedge a request inside v1's pass.
	oldDone := make(chan error, 1)
	go func() {
		_, err := r.Infer(context.Background(), "model", map[string]*tensor.Tensor{"x": inputFor(m, 1, 1)})
		oldDone <- err
	}()
	<-entered

	// Swap in v2 while v1 is mid-batch.
	if err := r.Load("model", testSpec(m, "v2", 0, Options{})); err != nil {
		t.Fatal(err)
	}
	list := r.Models()
	if len(list) != 1 || list[0].Version != "v2" {
		t.Fatalf("post-swap Models() = %+v, want single v2", list)
	}
	if st := r.Stats(); st.Swaps != 1 || st.Loads != 1 {
		t.Fatalf("swap counters %+v, want loads=1 swaps=1", st)
	}

	// New admissions answer on v2 even though v1 is still draining.
	if _, err := r.Infer(context.Background(), "model", map[string]*tensor.Tensor{"x": inputFor(m, 1, 2)}); err != nil {
		t.Fatalf("post-swap admission: %v", err)
	}

	// Release v1: the wedged request must complete successfully.
	close(gate)
	select {
	case err := <-oldDone:
		if err != nil {
			t.Fatalf("in-flight request dropped by swap: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never answered after swap")
	}
}

// TestRegistryPrioritySheds pins the starvation guard: while a
// higher-priority tenant's queue sits at or above the shed threshold,
// lower-priority admissions are rejected with ErrShed (a 429, and
// distinguishable from a plain full queue), equal-or-higher tenants are
// not shed, and service resumes once the pressure clears.
func TestRegistryPrioritySheds(t *testing.T) {
	m := chaosModel()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	r := NewRegistry()
	defer r.Close(context.Background())

	// High-priority tenant with a tiny queue we can pressure.
	hi := ModelSpec{Version: "v1", Priority: 2, Build: func() (*Server, error) {
		return New(Options{MaxBatch: 1, QueueDepth: 4, NewExecutor: gatedFactory(m, entered, gate)})
	}}
	if err := r.Load("hi", hi); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("lo", testSpec(m, "v1", 1, Options{})); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("peer", testSpec(m, "v1", 2, Options{})); err != nil {
		t.Fatal(err)
	}

	// Wedge hi's only replica and backlog its queue to 2/4 = 0.5.
	var wg sync.WaitGroup
	hiErrs := make([]error, 3)
	for i := range hiErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hiErrs[i] = r.Infer(context.Background(), "hi", map[string]*tensor.Tensor{"x": inputFor(m, 1, uint64(i))})
		}(i)
		if i == 0 {
			<-entered
		}
	}
	for len(r.models["hi"].srv.queue) < 2 {
		time.Sleep(time.Millisecond)
	}

	// Low priority is shed; the pressured tenant's peer (equal priority)
	// and the pressured tenant itself are not.
	feeds := func() map[string]*tensor.Tensor { return map[string]*tensor.Tensor{"x": inputFor(m, 1, 9)} }
	_, err := r.Infer(context.Background(), "lo", feeds())
	if !errors.Is(err, ErrShed) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("low-priority admission under pressure: %v, want ErrShed (wrapping ErrQueueFull)", err)
	}
	if _, err := r.Infer(context.Background(), "peer", feeds()); err != nil {
		t.Fatalf("equal-priority peer shed: %v", err)
	}
	if st := r.Stats(); st.Sheds < 1 {
		t.Fatalf("sheds counter %d, want >=1", st.Sheds)
	}

	// Pressure clears: low priority serves again.
	close(gate)
	wg.Wait()
	for i, err := range hiErrs {
		if err != nil {
			t.Fatalf("hi request %d: %v", i, err)
		}
	}
	if _, err := r.Infer(context.Background(), "lo", feeds()); err != nil {
		t.Fatalf("low-priority admission after pressure cleared: %v", err)
	}
}

// TestMultiModelConformance is the multi-tenant acceptance gate: two
// models served concurrently from one registry must produce outputs
// tolerance-equal to two standalone single-model servers.
func TestMultiModelConformance(t *testing.T) {
	const tol = 1e-5
	zoo := zooModels()
	pair := map[string]*graph.Model{"mlp": zoo["mlp"], "lenet": zoo["lenet"]}
	t.Run("sequential", func(t *testing.T) {
		const perModel = 6
		srvOpts := Options{MaxBatch: 4, MaxLinger: 2 * time.Millisecond, Replicas: 2}

		// Standalone reference servers, one per model.
		want := map[string][]map[string]*tensor.Tensor{}
		inputs := map[string][]*tensor.Tensor{}
		for name, m := range pair {
			o := srvOpts
			o.NewExecutor = execFactory(m)
			solo, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < perModel; i++ {
				in := inputFor(m, 1, uint64(100+i))
				out, err := solo.Infer(context.Background(), map[string]*tensor.Tensor{"x": in})
				if err != nil {
					t.Fatal(err)
				}
				inputs[name] = append(inputs[name], in)
				want[name] = append(want[name], out)
			}
			solo.Close(context.Background())
		}

		// One registry serving both concurrently.
		r := NewRegistry()
		defer r.Close(context.Background())
		for name, m := range pair {
			if err := r.Load(name, testSpec(m, "v1", 0, srvOpts)); err != nil {
				t.Fatal(err)
			}
		}
		type res struct {
			model string
			i     int
			outs  map[string]*tensor.Tensor
			err   error
		}
		results := make(chan res, 2*perModel)
		var wg sync.WaitGroup
		for name := range pair {
			for i := 0; i < perModel; i++ {
				wg.Add(1)
				go func(name string, i int) {
					defer wg.Done()
					outs, err := r.Infer(context.Background(), name,
						map[string]*tensor.Tensor{"x": inputs[name][i]})
					results <- res{model: name, i: i, outs: outs, err: err}
				}(name, i)
			}
		}
		wg.Wait()
		close(results)
		for got := range results {
			if got.err != nil {
				t.Fatalf("%s request %d: %v", got.model, got.i, got.err)
			}
			for oname, w := range want[got.model][got.i] {
				g, ok := got.outs[oname]
				if !ok {
					t.Fatalf("%s request %d: missing output %q", got.model, got.i, oname)
				}
				if d := maxAbsDiff(t, w, g); d > tol {
					t.Fatalf("%s request %d output %q diverges from standalone server: %g", got.model, got.i, oname, d)
				}
			}
		}
	})
}

// TestRegistryHTTPLifecycle drives the multi-tenant HTTP surface end to
// end: PUT loads, GET lists, per-model infer routes, version swap over
// HTTP, DELETE unloads, and the sole-model /v1/infer compatibility route.
func TestRegistryHTTPLifecycle(t *testing.T) {
	zoo := zooModels()
	r := NewRegistry()
	defer r.Close(context.Background())
	loader := func(name string, lr LoadRequest) (ModelSpec, error) {
		m, ok := zoo[lr.Zoo]
		if !ok {
			return ModelSpec{}, fmt.Errorf("unknown zoo model %q", lr.Zoo)
		}
		version := lr.Version
		if version == "" {
			version = "zoo:" + lr.Zoo
		}
		return testSpec(m, version, lr.Priority, Options{}), nil
	}
	ts := httptest.NewServer(r.Handler(loader))
	defer ts.Close()

	put := func(name, body string) (int, string) {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+name, bytes.NewBufferString(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := put("mnist", `{"zoo":"mlp","version":"v1"}`); code != http.StatusOK {
		t.Fatalf("PUT load: %d %s", code, body)
	}
	// Sole model: /v1/infer routes without a name.
	m := zoo["mlp"]
	in := inputFor(m, 1, 5)
	ireq, _ := json.Marshal(map[string]any{"feeds": map[string]TensorJSON{"x": {Shape: in.Shape(), Data: in.Data()}}})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(ireq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sole-model /v1/infer: %d", resp.StatusCode)
	}

	if code, body := put("vision", `{"zoo":"lenet"}`); code != http.StatusOK {
		t.Fatalf("PUT second load: %d %s", code, body)
	}
	// Two models: bare /v1/infer is ambiguous, named route works.
	resp, err = http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(ireq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous /v1/infer: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/models/mnist/infer", "application/json", bytes.NewReader(ireq))
	if err != nil {
		t.Fatal(err)
	}
	var iresp InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&iresp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(iresp.Outputs) == 0 {
		t.Fatalf("named infer: %d outputs=%v", resp.StatusCode, iresp.Outputs)
	}

	// Swap over HTTP, then verify the listing reflects it.
	if code, body := put("mnist", `{"zoo":"mlp","version":"v2"}`); code != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"swapped":true`)) {
		t.Fatalf("PUT swap: %d %s", code, body)
	}
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Models) != 2 || listing.Models[0].Name != "mnist" || listing.Models[0].Version != "v2" {
		t.Fatalf("GET /v1/models = %+v, want mnist@v2 + vision", listing.Models)
	}

	// Unknown model and zoo answer 404 / 400.
	resp, err = http.Post(ts.URL+"/v1/models/ghost/infer", "application/json", bytes.NewReader(ireq))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model infer: %d, want 404", resp.StatusCode)
	}
	if code, _ := put("ghost", `{"zoo":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown zoo PUT: %d, want 400", code)
	}

	// DELETE unloads; the name is then unknown.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/vision", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/models/vision")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unloaded model: %d, want 404", resp.StatusCode)
	}

	// /stats keeps the single-server aggregate shape.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"requests", "rejected", "failed", "models", "registry"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/stats missing %q: %v", key, stats)
		}
	}
}
