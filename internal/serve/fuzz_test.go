package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"deep500/internal/executor"
	"deep500/internal/models"
)

// Fuzz targets for the HTTP JSON decoders, mirroring FuzzDecodeFrame in
// internal/transport: arbitrary bodies must never panic the handler, a
// body the strict decoder rejects must always answer 400 with a JSON
// error envelope, and no input may surface an internal error status.
//
// For /v1/infer the strict encoding/json decode is no longer what the
// handler runs but what it is held to: the language parseFeeds accepts is a
// subset of encoding/json's, and on that subset the decoded feeds are the
// same, bit for bit (compareWithStrictJSON).

// fuzzRegistry builds a registry serving one tiny model, shared across
// all iterations of one fuzz worker.
func fuzzRegistry(f *testing.F) *Registry {
	m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
	r := NewRegistry()
	spec := ModelSpec{Version: "v1", Build: func() (*Server, error) {
		return New(Options{
			MaxBatch:    1,
			QueueDepth:  1024,
			NewExecutor: func() (executor.GraphExecutor, error) { return executor.New(m) },
		})
	}}
	if err := r.Load("fuzz", spec); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { r.Close(context.Background()) })
	return r
}

// checkDecoderResponse asserts the no-panic/no-5xx contract shared by
// both JSON decoders: a body the strict decoder rejects is a 400, every
// non-2xx response carries the JSON error envelope, and the status stays
// inside the request-taxonomy set.
func checkDecoderResponse(t *testing.T, rec *httptest.ResponseRecorder, decodeErr error, allowed ...int) {
	t.Helper()
	code := rec.Code
	if decodeErr != nil && code != http.StatusBadRequest {
		t.Fatalf("undecodable body answered %d, want 400 (%v)", code, decodeErr)
	}
	ok := false
	for _, a := range allowed {
		if code == a {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("status %d outside the allowed taxonomy %v; body: %s", code, allowed, rec.Body.String())
	}
	if code != http.StatusOK {
		var envelope errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
			t.Fatalf("non-2xx response %d is not a JSON error envelope: %s", code, rec.Body.String())
		}
	}
}

// strictDecode mirrors the handler's decoder settings so the fuzz target
// knows which bodies must map to 400.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// strictFeeds is strictDecode over a POST /v1/infer body. The target is a
// struct, not a map, so unknown top-level fields are rejected and "feeds"
// is matched the way encoding/json matches a tagged field.
func strictFeeds(body []byte) (map[string]TensorJSON, error) {
	var req struct {
		Feeds map[string]TensorJSON `json:"feeds"`
	}
	err := strictDecode(body, &req)
	return req.Feeds, err
}

func FuzzInferJSON(f *testing.F) {
	r := fuzzRegistry(f)
	handler := r.Handler(nil)

	// Seed corpus: one valid request, then the malformed taxonomy —
	// truncated JSON, wrong-typed fields, empty feeds, volume mismatches,
	// negative and zero dimensions, unknown fields, non-finite numbers.
	valid, _ := json.Marshal(map[string]any{"feeds": map[string]TensorJSON{
		"x": {Shape: []int{1, 1, 4, 4}, Data: make([]float32, 16)},
	}})
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"feeds":{}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":[1,1,4,4],"data":[1,2]}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":[-1,-16],"data":[1]}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":[0],"data":[]}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":"wide","data":true}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":[1],"data":[1e999]}}}`))
	f.Add([]byte(`{"unknown":1,"feeds":{}}`))
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// The scanner's own corners: key order, whitespace, number forms, and
	// the forms encoding/json takes that the scanner's grammar leaves out.
	f.Add([]byte(`{"feeds":{"x":{"data":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],"shape":[1,1,4,4]}}}`))
	f.Add([]byte(" {\n\"feeds\" : { \"x\" : { \"shape\" : [ 2 ] , \"data\" : [ -0 , 1.5e-3 ] } } }\r\n"))
	f.Add([]byte(`{"feeds":{"x":{"shape":[3],"data":[1e39,-1E+2,0.1000000000000000055511151231257827]}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":[1],"data":[01]}}}`))
	f.Add([]byte(`{"Feeds":{"x":{"Shape":[1],"DATA":[1]}}}`))
	f.Add([]byte(`{"feeds":{"x":{"shape":null,"data":[1]}},"feeds":null}`))
	f.Add([]byte(`{"feeds":{"x\u0031":{"shape":[1],"data":[1]},"x1":{"shape":[1],"data":[2]}}}`))
	f.Add([]byte(`{"feeds":{}} {"feeds":{}}`))
	// Numbers on both sides of parseFloat32's fast path: a float32
	// midpoint, 2^53+1, an exponent past 22 and -0 with an absurd exponent.
	f.Add([]byte(`{"feeds":{"x":{"shape":[4],"data":[16777217,9007199254740993,1e23,-0e999]}}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		_, decodeErr := strictFeeds(body)
		if feeds, err := parseFeeds(body); err == nil { // must never panic
			compareWithStrictJSON(t, body, feeds)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must never panic
		checkDecoderResponse(t, rec, decodeErr,
			http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusTooManyRequests, http.StatusServiceUnavailable)
	})
}

func FuzzModelLoadJSON(f *testing.F) {
	r := fuzzRegistry(f)
	zoo := map[string]func() (*Server, error){
		"mlp": func() (*Server, error) {
			m := models.MLP(models.Config{Classes: 4, Channels: 1, Height: 4, Width: 4, Seed: 7}, 8)
			return New(Options{MaxBatch: 1, NewExecutor: func() (executor.GraphExecutor, error) { return executor.New(m) }})
		},
	}
	loader := func(name string, lr LoadRequest) (ModelSpec, error) {
		build, ok := zoo[lr.Zoo]
		if !ok {
			return ModelSpec{}, fmt.Errorf("unknown zoo model %q", lr.Zoo)
		}
		return ModelSpec{Version: lr.Version, Priority: lr.Priority, Build: build}, nil
	}
	handler := r.Handler(loader)

	f.Add([]byte(`{"zoo":"mlp","version":"v1","priority":1}`))
	f.Add([]byte(`{"zoo":"nope"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"zoo":42}`))
	f.Add([]byte(`{"version":{"nested":true}}`))
	f.Add([]byte(`{"unknown_field":"x"}`))
	f.Add([]byte(`{"zoo":"mlp"`))
	f.Add([]byte(`null`))
	f.Add(bytes.Repeat([]byte{0xfe}, 32))

	f.Fuzz(func(t *testing.T, body []byte) {
		var probe LoadRequest
		decodeErr := strictDecode(body, &probe)
		req := httptest.NewRequest(http.MethodPut, "/v1/models/fuzzload", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must never panic
		checkDecoderResponse(t, rec, decodeErr,
			http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable)
	})
}
