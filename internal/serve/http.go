package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"

	"deep500/internal/obs/trace"
	"deep500/internal/tensor"
)

// The inference wire format shared by every inference route of
// Registry.Handler (registry_http.go), the one HTTP front end; a single
// model is served as a one-model registry.
//
// Request body:  {"feeds":  {"x": {"shape": [1,1,28,28], "data": [...]}}}
// Response body: {"outputs": {"fc_9_y": {"shape": [1,10], "data": [...]}}}
//
// The request body is decoded by a scanner for exactly this schema
// (decode.go), not by encoding/json. The language it accepts, ws being any
// run of space, tab, LF and CR, allowed around every token:
//
//	request = "{" [ `"feeds"` ":" feeds ] "}"          nothing but ws may follow
//	feeds   = "{" [ feed { "," feed } ] "}"            feed names distinct
//	feed    = name ":" "{" [ field { "," field } ] "}" each field at most once, either order
//	field   = `"shape"` ":" "[" [ int { "," int } ] "]"
//	        | `"data"`  ":" "[" [ num { "," num } ] "]"
//	name    = `"` { UTF-8 character except `"`, `\` and U+0000–U+001F } `"`
//	int     = [ "-" ] ( "0" | digit1-9 { digit } )     must fit an int
//	num     = int [ "." digit { digit } ] [ ( "e" | "E" ) [ "+" | "-" ] digit { digit } ]
//
// A num yields the value strconv.ParseFloat(num, 32) returns, bit for bit,
// as encoding/json converts it (exactFloat32 in decode.go has the proof),
// and must be in float32 range (1e39 is a 400, 1e-60 is 0). An
// absent shape is the scalar shape [], an absent data is no values; the
// values must fill the shape and no dimension may be negative. This is a
// subset of what the strict encoding/json decoder (DisallowUnknownFields)
// used to accept, and on it the decoded tensors are the same bit for bit
// (FuzzInferJSON holds both). What that decoder took and this one answers
// 400 to:
//
//   - keys matched without regard to case ("Feeds", "SHAPE", "ſhape");
//   - null in place of the feeds object, a feed, a shape or a data array;
//   - a repeated key at any level, a repeated feed name included (the last
//     one used to win);
//   - escape sequences (\", \u0031, …) and invalid UTF-8 in a key or feed name;
//   - anything but whitespace after the request object (a second JSON value
//     used to be left unread).
//
// Backpressure maps onto status codes: 429 when the admission queue is
// full, 503 after shutdown began, 400 for malformed feeds, 504 when the
// request's deadline expired while queued, 500 when the replica serving
// the request crashed mid-batch (ErrReplicaCrash) or an output holds a
// value JSON cannot render (NaN, ±Inf).

// TensorJSON is the wire form of a tensor: an explicit shape plus the
// row-major float32 data.
type TensorJSON struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// InferResponse is the POST /v1/infer response body.
type InferResponse struct {
	Outputs map[string]TensorJSON `json:"outputs"`
}

// errorResponse is the JSON error envelope of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds /v1/infer request bodies (64 MiB of JSON is far
// beyond any sane single inference request).
const maxBodyBytes = 64 << 20

// traceContext wires trace propagation into one inference request: an
// inbound d500-trace header joins the caller's trace, and a capture slot
// lets Server.Infer report the root span it started for the request.
func traceContext(r *http.Request) (context.Context, *trace.Capture) {
	ctx := r.Context()
	if rm, ok := trace.Parse(r.Header.Get(trace.HeaderName)); ok {
		ctx = trace.ContextWithRemote(ctx, rm)
	}
	capture := &trace.Capture{}
	return trace.ContextWithCapture(ctx, capture), capture
}

// echoTrace sets the d500-trace response header from a filled capture
// slot. It must run before the response body is written; the access-log
// middleware lifts the header into its trace field, giving the
// p95-triage funnel its log→trace exemplar hop.
func echoTrace(w http.ResponseWriter, capture *trace.Capture) {
	if capture.Trace != 0 {
		w.Header().Set(trace.HeaderName, trace.Format(capture.Trace, capture.Span))
	}
}

// decodeFeeds reads and decodes a POST /v1/infer body (parseFeeds, decode.go),
// writing the 400 response itself on failure (second result false). It is
// the only request decoder of the inference routes. The body is read once into a pooled buffer;
// the decoded tensors own their data, so the buffer goes straight back.
func decodeFeeds(w http.ResponseWriter, r *http.Request) (map[string]*tensor.Tensor, bool) {
	buf := getBuffer()
	defer putBuffer(buf)
	// Size the buffer from Content-Length, but only as far as a pooled
	// buffer goes: a header is a claim, not bytes received. ReadFrom wants
	// MinRead spare bytes to see EOF without growing.
	buf.Grow(int(min(max(r.ContentLength, 0), maxPooledBuffer)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	feeds, err := parseFeeds(buf.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	return feeds, true
}

// buffers recycles the request-body and response-encoding buffers of the
// JSON handlers. A buffer that grew past maxPooledBuffer is dropped rather
// than pooled, so one large request does not stay resident.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 1 << 20

func getBuffer() *bytes.Buffer { return buffers.Get().(*bytes.Buffer) }

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		buffers.Put(b)
	}
}

func writeOutputs(w http.ResponseWriter, outs map[string]*tensor.Tensor) {
	resp := InferResponse{Outputs: make(map[string]TensorJSON, len(outs))}
	for name, t := range outs {
		resp.Outputs[name] = TensorJSON{Shape: t.Shape(), Data: t.Data()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statusFor maps the serving error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrReplicaCrash):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// statusClientClosedRequest is nginx's non-standard 499 (client closed
// request): the caller went away while the request was queued.
const statusClientClosedRequest = 499

// writeJSON encodes v before it commits to a status: encoding/json refuses
// NaN and ±Inf, and a model can produce them, so an encoding failure must
// still be able to answer 500 with the error envelope instead of a 200 with
// an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		// An errorResponse is a string: this cannot fail.
		_ = json.NewEncoder(buf).Encode(errorResponse{Error: "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
