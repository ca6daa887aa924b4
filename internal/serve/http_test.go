package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"deep500/internal/models"
	"deep500/internal/tensor"
)

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	cfg := models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}
	m := models.MLP(cfg, 8)
	if opts.NewExecutor == nil {
		opts.NewExecutor = execFactory(m)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	return srv
}

// oneModel serves srv over HTTP the way d500serve serves a model: as the
// sole tenant of a registry, whose POST /v1/infer routes to it.
func oneModel(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Load("m", ModelSpec{Version: "v1", Build: func() (*Server, error) { return srv, nil }}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler(nil))
	t.Cleanup(func() {
		ts.Close()
		reg.Close(context.Background())
	})
	return ts
}

func postInfer(t *testing.T, ts *httptest.Server, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPInferRoundTrip drives the JSON front end end to end and checks
// the HTTP result matches a direct Server.Infer of the same input.
func TestHTTPInferRoundTrip(t *testing.T) {
	srv := testServer(t, Options{MaxBatch: 4, MaxLinger: 5 * time.Millisecond})
	ts := oneModel(t, srv)

	x := make([]float32, 16)
	for i := range x {
		x[i] = float32(i) / 16
	}
	want, err := srv.Infer(context.Background(),
		map[string]*tensor.Tensor{"x": tensor.From(append([]float32(nil), x...), 1, 1, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent HTTP clients exercise the batcher through the front end.
	const clients = 8
	var wg sync.WaitGroup
	results := make([]InferResponse, clients)
	codes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp := postInfer(t, ts, map[string]any{"feeds": map[string]TensorJSON{
				"x": {Shape: []int{1, 1, 4, 4}, Data: x},
			}})
			defer resp.Body.Close()
			codes[c] = resp.StatusCode
			_ = json.NewDecoder(resp.Body).Decode(&results[c])
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if codes[c] != http.StatusOK {
			t.Fatalf("client %d: status %d", c, codes[c])
		}
		if len(results[c].Outputs) != len(want) {
			t.Fatalf("client %d: %d outputs, want %d", c, len(results[c].Outputs), len(want))
		}
		for name, w := range want {
			got, ok := results[c].Outputs[name]
			if !ok {
				t.Fatalf("client %d: missing output %q", c, name)
			}
			if !tensor.ShapeEq(got.Shape, w.Shape()) {
				t.Fatalf("client %d output %q: shape %v want %v", c, name, got.Shape, w.Shape())
			}
			for i, v := range w.Data() {
				d := float64(got.Data[i] - v)
				if d < 0 {
					d = -d
				}
				if d > 1e-5 {
					t.Fatalf("client %d output %q diverges at %d: %g vs %g", c, name, i, got.Data[i], v)
				}
			}
		}
	}
}

// TestHTTPErrorMapping checks the status-code taxonomy of the front end.
func TestHTTPErrorMapping(t *testing.T) {
	srv := testServer(t, Options{MaxBatch: 1})
	ts := oneModel(t, srv)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"wrong feed name", map[string]any{"feeds": map[string]TensorJSON{
			"nope": {Shape: []int{1, 1, 4, 4}, Data: make([]float32, 16)}}}, http.StatusBadRequest},
		{"shape/data mismatch", map[string]any{"feeds": map[string]TensorJSON{
			"x": {Shape: []int{1, 1, 4, 4}, Data: make([]float32, 3)}}}, http.StatusBadRequest},
		{"negative dimension", map[string]any{"feeds": map[string]TensorJSON{
			"x": {Shape: []int{-1, 16}, Data: nil}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"bogus": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := postInfer(t, ts, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Method checks.
	resp, err := ts.Client().Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/infer: status %d", resp.StatusCode)
	}

	// Closing the server turns requests into 503s.
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = postInfer(t, ts, map[string]any{"feeds": map[string]TensorJSON{
		"x": {Shape: []int{1, 1, 4, 4}, Data: make([]float32, 16)}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed server: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPStatsAndHealth covers the observability routes.
func TestHTTPStatsAndHealth(t *testing.T) {
	srv := testServer(t, Options{MaxBatch: 2, Replicas: 1})
	ts := oneModel(t, srv)

	resp := postInfer(t, ts, map[string]any{"feeds": map[string]TensorJSON{
		"x": {Shape: []int{1, 1, 4, 4}, Data: make([]float32, 16)}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: status %d", resp.StatusCode)
	}

	sr, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("/stats: status %d", sr.StatusCode)
	}
	var st registryStatsJSON
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Batches != 1 || len(st.Models) != 1 || st.Models[0].Stats.MaxBatch != 2 {
		t.Fatalf("stats = %+v", st)
	}

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", hr.StatusCode)
	}
}
