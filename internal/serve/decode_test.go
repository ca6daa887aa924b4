package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"deep500/internal/tensor"
)

// compareWithStrictJSON holds an accepted body to the contract of the
// decoder: encoding/json, configured as the handler used to configure it,
// accepts the body too, and yields the same feeds with the same shapes and
// bit-identical data.
func compareWithStrictJSON(t *testing.T, body []byte, feeds map[string]*tensor.Tensor) {
	t.Helper()
	ref, err := strictFeeds(body)
	if err != nil {
		t.Fatalf("accepted a body encoding/json rejects (%v): %q", err, body)
	}
	if len(feeds) != len(ref) {
		t.Fatalf("%d feeds, encoding/json sees %d: %q", len(feeds), len(ref), body)
	}
	for name, want := range ref {
		got, ok := feeds[name]
		if !ok {
			t.Fatalf("feed %q missing: %q", name, body)
		}
		if len(want.Shape) != got.Rank() || (got.Rank() > 0 && !tensor.ShapeEq(got.Shape(), want.Shape)) {
			t.Fatalf("feed %q: shape %v, encoding/json sees %v: %q", name, got.Shape(), want.Shape, body)
		}
		if len(got.Data()) != len(want.Data) {
			t.Fatalf("feed %q: %d values, encoding/json sees %d: %q", name, len(got.Data()), len(want.Data), body)
		}
		for i, v := range want.Data {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("feed %q[%d] = %g, encoding/json sees %g: %q", name, i, got.Data()[i], v, body)
			}
		}
	}
}

// TestParseFeedsAccepts: the forms a client may send, each decoded to what
// encoding/json decodes it to.
func TestParseFeedsAccepts(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"struct order", `{"feeds":{"x":{"shape":[1,2],"data":[1,2]}}}`},
		{"map order, as cmd/d500load marshals it", `{"feeds":{"x":{"data":[1,2],"shape":[1,2]}}}`},
		{"whitespace everywhere", " \t\r\n{ \"feeds\" :\n{ \"x\" : { \"shape\" : [ 1 , 2 ] ,\n\t\"data\" : [ 1 , 2 ] } } } \r\n"},
		{"two feeds", `{"feeds":{"x":{"shape":[1],"data":[1]},"y":{"data":[2,3],"shape":[2]}}}`},
		{"exponents and fractions", `{"feeds":{"x":{"shape":[6],"data":[1e3,1E-3,-2.5e+2,0.1,123456789.125,7e-46]}}}`},
		{"negative zero", `{"feeds":{"x":{"shape":[2],"data":[-0,-0.0]}}}`},
		{"float32 extremes", `{"feeds":{"x":{"shape":[3],"data":[3.4028234e38,-3.4028234e38,1e-45]}}}`},
		{"more digits than a float32 holds", `{"feeds":{"x":{"shape":[2],"data":[0.1000000000000000055511151231257827,16777217]}}}`},
		{"empty data", `{"feeds":{"x":{"shape":[0],"data":[]}}}`},
		{"empty data, data first", `{"feeds":{"x":{"data":[],"shape":[2,0]}}}`},
		{"scalar: empty shape", `{"feeds":{"x":{"shape":[],"data":[7]}}}`},
		{"scalar: shape absent", `{"feeds":{"x":{"data":[7]}}}`},
		{"data absent", `{"feeds":{"x":{"shape":[0]}}}`},
		{"no feeds", `{"feeds":{}}`},
		{"no fields", `{}`},
		{"unicode name", `{"feeds":{"输入/x:0":{"shape":[1],"data":[1]}}}`},
		{"empty name", `{"feeds":{"":{"shape":[1],"data":[1]}}}`},
		{"dimension -0", `{"feeds":{"x":{"shape":[-0],"data":[]}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feeds, err := parseFeeds([]byte(tc.body))
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			compareWithStrictJSON(t, []byte(tc.body), feeds)
		})
	}
}

// TestParseFeedsRejects: everything the handler has always answered 400 to,
// and (second group) the forms encoding/json accepted that this decoder, by
// its stated grammar, does not.
func TestParseFeedsRejects(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"empty body", ``},
		{"not an object", `[1]`},
		{"unknown top-level field", `{"unknown":1,"feeds":{}}`},
		{"unknown tensor field", `{"feeds":{"x":{"shape":[1],"data":[1],"dtype":"f32"}}}`},
		{"shape of the wrong type", `{"feeds":{"x":{"shape":"wide","data":[1]}}}`},
		{"data of the wrong type", `{"feeds":{"x":{"shape":[1],"data":true}}}`},
		{"string in data", `{"feeds":{"x":{"shape":[1],"data":["1"]}}}`},
		{"nested array in data", `{"feeds":{"x":{"shape":[1],"data":[[1]]}}}`},
		{"fractional dimension", `{"feeds":{"x":{"shape":[1.0],"data":[1]}}}`},
		{"exponent dimension", `{"feeds":{"x":{"shape":[1e0],"data":[1]}}}`},
		{"dimension beyond int", `{"feeds":{"x":{"shape":[99999999999999999999],"data":[1]}}}`},
		{"negative dimension", `{"feeds":{"x":{"shape":[-1,-16],"data":[1]}}}`},
		{"too few values", `{"feeds":{"x":{"shape":[1,1,4,4],"data":[1,2]}}}`},
		{"too many values", `{"feeds":{"x":{"shape":[1],"data":[1,2]}}}`},
		{"1e39 overflows float32", `{"feeds":{"x":{"shape":[1],"data":[1e39]}}}`},
		{"-1e39 overflows float32", `{"feeds":{"x":{"shape":[1],"data":[-1e39]}}}`},
		{"1e999", `{"feeds":{"x":{"shape":[1],"data":[1e999]}}}`},
		{"NaN literal", `{"feeds":{"x":{"shape":[1],"data":[NaN]}}}`},
		{"Infinity literal", `{"feeds":{"x":{"shape":[1],"data":[Infinity]}}}`},
		{"leading zero", `{"feeds":{"x":{"shape":[1],"data":[01]}}}`},
		{"leading plus", `{"feeds":{"x":{"shape":[1],"data":[+1]}}}`},
		{"bare minus", `{"feeds":{"x":{"shape":[1],"data":[-]}}}`},
		{"no digits before the point", `{"feeds":{"x":{"shape":[1],"data":[.5]}}}`},
		{"no digits after the point", `{"feeds":{"x":{"shape":[1],"data":[1.]}}}`},
		{"empty exponent", `{"feeds":{"x":{"shape":[1],"data":[1e]}}}`},
		{"hex float", `{"feeds":{"x":{"shape":[1],"data":[0x1p4]}}}`},
		{"digit separator", `{"feeds":{"x":{"shape":[1],"data":[1_0]}}}`},
		{"trailing comma in data", `{"feeds":{"x":{"shape":[1],"data":[1,]}}}`},
		{"leading comma in data", `{"feeds":{"x":{"shape":[1],"data":[,1]}}}`},
		{"trailing comma in object", `{"feeds":{"x":{"shape":[1],"data":[1]},}}`},
		{"missing colon", `{"feeds"{}}`},
		{"control character in a name", "{\"feeds\":{\"x\ny\":{\"shape\":[1],\"data\":[1]}}}"},
		{"vertical tab as whitespace", "{\v\"feeds\":{}}"},
		{"binary", strings.Repeat("\xff", 64)},

		// No longer accepted; listed in http.go's header comment.
		{"key in another case", `{"Feeds":{}}`},
		{"tensor key in another case", `{"feeds":{"x":{"SHAPE":[1],"data":[1]}}}`},
		{"key matched by Unicode case folding", `{"feeds":{"x":{"ſhape":[1],"data":[1]}}}`},
		{"null feeds", `{"feeds":null}`},
		{"null tensor", `{"feeds":{"x":null}}`},
		{"null shape", `{"feeds":{"x":{"shape":null,"data":[1]}}}`},
		{"null data", `{"feeds":{"x":{"shape":[0],"data":null}}}`},
		{"null value", `{"feeds":{"x":{"shape":[1],"data":[null]}}}`},
		{"duplicate feeds", `{"feeds":{},"feeds":{}}`},
		{"duplicate feed name", `{"feeds":{"x":{"shape":[1],"data":[1]},"x":{"shape":[1],"data":[2]}}}`},
		{"duplicate shape", `{"feeds":{"x":{"shape":[1],"shape":[1],"data":[1]}}}`},
		{"duplicate data", `{"feeds":{"x":{"shape":[1],"data":[1],"data":[1]}}}`},
		{"escape sequence in a name", `{"feeds":{"x\u0031":{"shape":[1],"data":[1]}}}`},
		{"escaped key", `{"f\u0065eds":{}}`},
		{"escaped quote in a name", `{"feeds":{"x\"":{"shape":[1],"data":[1]}}}`},
		{"invalid UTF-8 in a name", "{\"feeds\":{\"x\xff\":{\"shape\":[1],\"data\":[1]}}}"},
		{"second value after the object", `{"feeds":{}} {}`},
		{"text after the object", `{"feeds":{}}x`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if feeds, err := parseFeeds([]byte(tc.body)); err == nil {
				t.Fatalf("accepted, as %v", feeds)
			}
		})
	}
}

// TestParseFeedsTruncated cuts a valid request at every byte offset: each
// prefix is an error, never a panic and never a shorter valid request.
func TestParseFeedsTruncated(t *testing.T) {
	for _, body := range []string{
		`{"feeds":{"x":{"shape":[1,1,2,2],"data":[0.5,-1e-3,2,3.25]},"y":{"data":[7],"shape":[1]}}}`,
		`{ "feeds" : { "x" : { "data" : [ 1.5 , 2 ] , "shape" : [ 2 ] } } }`,
	} {
		if _, err := parseFeeds([]byte(body)); err != nil {
			t.Fatalf("the whole request is rejected: %v", err)
		}
		for cut := 0; cut < len(body); cut++ {
			if feeds, err := parseFeeds([]byte(body[:cut])); err == nil {
				t.Fatalf("accepted the first %d bytes %q as %v", cut, body[:cut], feeds)
			}
		}
	}
}

// TestParseFeedsMatchesJSONOnFloats sweeps the float formats a client's
// encoder may produce over awkward values: the decoded bits are
// encoding/json's in both key orders.
func TestParseFeedsMatchesJSONOnFloats(t *testing.T) {
	values := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 0.1, 1.0 / 3, 16777216, 16777217,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1.17549435e-38, 1e-40, 6.02214076e23, 299792458}
	rng := tensor.NewRNG(40)
	for i := 0; i < 200; i++ {
		values = append(values, math.Float32frombits(uint32(rng.Uint64())&0x7f7fffff|uint32(i&1)<<31))
	}
	for _, format := range []string{"%g", "%v", "%e", "%.9g", "%.20f", "%E"} {
		var data []string
		for _, v := range values {
			data = append(data, fmt.Sprintf(format, v))
		}
		list := strings.Join(data, ",")
		for _, body := range []string{
			fmt.Sprintf(`{"feeds":{"x":{"shape":[%d],"data":[%s]}}}`, len(values), list),
			fmt.Sprintf(`{"feeds":{"x":{"data":[%s],"shape":[%d]}}}`, list, len(values)),
		} {
			feeds, err := parseFeeds([]byte(body))
			if err != nil {
				t.Fatalf("format %s: %v", format, err)
			}
			compareWithStrictJSON(t, []byte(body), feeds)
		}
	}
}

// TestDecodeFeedsAllocatesTheTensorOnly: one exact-size data slice per feed
// and no per-value garbage, in either key order.
func TestDecodeFeedsAllocatesTheTensorOnly(t *testing.T) {
	data := make([]float32, 784)
	for i := range data {
		data[i] = float32(i) / 784
	}
	structOrder, _ := json.Marshal(map[string]any{"feeds": map[string]TensorJSON{"x": {Shape: []int{1, 1, 28, 28}, Data: data}}})
	mapOrder, _ := json.Marshal(map[string]any{"feeds": map[string]any{"x": map[string]any{"data": data, "shape": []int{1, 1, 28, 28}}}})
	for _, body := range [][]byte{structOrder, mapOrder} {
		feeds, err := parseFeeds(body)
		if err != nil {
			t.Fatal(err)
		}
		if x := feeds["x"]; cap(x.Data()) != 784 {
			t.Fatalf("data slice has capacity %d for 784 values", cap(x.Data()))
		}
		// The map and its bucket, the tensor, its shape (twice: decoded,
		// then copied by tensor.From) and its data.
		if n := testing.AllocsPerRun(20, func() { _, _ = parseFeeds(body) }); n > 8 {
			t.Fatalf("%v allocations per request; the decoder is meant to allocate per feed, not per value", n)
		}
	}
}

// TestHTTPNonFiniteOutputIs500 is the regression test for the empty 200: a
// model whose output holds NaN or ±Inf cannot be rendered by encoding/json,
// and writeJSON used to find that out after committing to 200.
func TestHTTPNonFiniteOutputIs500(t *testing.T) {
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		rec := httptest.NewRecorder()
		writeOutputs(rec, map[string]*tensor.Tensor{"y": tensor.From([]float32{1, v}, 1, 2)})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("output holding %v answered %d, want 500", v, rec.Code)
		}
		var envelope errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
			t.Fatalf("500 body is not the error envelope: %q", rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
	rec := httptest.NewRecorder()
	writeOutputs(rec, map[string]*tensor.Tensor{"y": tensor.From([]float32{1, 2}, 1, 2)})
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"data":[1,2]`)) {
		t.Fatalf("finite output answered %d %q", rec.Code, rec.Body.String())
	}
}
