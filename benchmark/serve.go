package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"deep500/d500"
)

// serveWorkload is either serving workload: the registry/HTTP stack of
// cmd/d500serve rebuilt in-process behind a loopback listener, or a bare
// d500.Server called directly.
type serveWorkload struct {
	cfg       runConfig
	overHTTP  bool
	callers   int // closed-loop: each waits for its reply before the next request
	warmupOps int
	build     func(seed uint64) *Model
	opts      []d500.ServerOption

	pool [][]float32
	refs []map[string][]float32 // reference outputs per pool row

	// tracing is the recorder of the current traced segment; the hook and
	// the middleware, installed only on a traced instance, record into it.
	tracing  atomic.Pointer[recorder]
	rejected atomic.Int64
	nextOp   atomic.Int64

	// the instance under test
	model    *Model
	server   *d500.Server
	registry *d500.Registry
	httpSrv  *http.Server
	served   chan error
	url      string
	clients  []*http.Client
}

const replicas = 2

// Both serving workloads keep cmd/d500serve's respawn default. The session
// options stay at their defaults: an optimisation shows here by becoming one.
func newServeLeNetHTTP(cfg runConfig) workload {
	return &serveWorkload{cfg: cfg, overHTTP: true, callers: 2, warmupOps: 300,
		build: func(seed uint64) *Model { return buildLeNet(seed, false) },
		// Linger 0: a linger is a sleep, and would hide every layer under it.
		opts: []d500.ServerOption{d500.WithMaxBatch(8), d500.WithMaxLinger(0), d500.WithReplicas(replicas), d500.WithRespawn()}}
}

func newServeMLPBatched(cfg runConfig) workload {
	return &serveWorkload{cfg: cfg, callers: 16, warmupOps: 2000,
		build: func(seed uint64) *Model { return buildMLP(seed, false, 256, 256) },
		// The d500serve flag defaults.
		opts: []d500.ServerOption{d500.WithMaxBatch(8), d500.WithMaxLinger(2 * time.Millisecond), d500.WithReplicas(replicas), d500.WithRespawn()}}
}

func (w *serveWorkload) samplesPerOp() int { return 1 }
func (w *serveWorkload) verify() error     { return nil } // every response is compared as it arrives

func feed(row []float32) map[string]*Tensor {
	return map[string]*Tensor{"x": tensorOf(row, 1, 1, imageSide, imageSide)}
}

func (w *serveWorkload) prepare() error {
	w.pool = genPool(w.cfg.Seed)
	sess, err := d500.New()
	if err != nil {
		return err
	}
	if err := sess.Open(w.build(w.cfg.Seed)); err != nil {
		return err
	}
	for _, row := range w.pool {
		out, err := sess.Infer(context.Background(), feed(row))
		if err != nil {
			return err
		}
		ref := make(map[string][]float32, len(out))
		for name, t := range out {
			ref[name] = append([]float32(nil), t.Data()...)
		}
		w.refs = append(w.refs, ref)
	}
	return nil
}

func (w *serveWorkload) hook(e d500.Event) {
	if s, ok := e.(d500.ServeSample); ok {
		if rec := w.tracing.Load(); rec != nil {
			rec.addBatch(s.QueueWait, s.Exec, s.Rows)
		}
	}
}

const opHeader = "X-Bench-Op" // "<op>/<id of the client.roundtrip span>"

// middleware records the serve.http span of requests that carry opHeader.
func (w *serveWorkload) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec, tag := w.tracing.Load(), r.Header.Get(opHeader)
		if rec == nil || tag == "" {
			next.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(rw, r)
		end := time.Now()
		var op, parent int64
		if _, err := fmt.Sscanf(tag, "%d/%d", &op, &parent); err == nil {
			rec.add(rec.newID(), parent, op, "serve.http", rec.at(start), rec.at(end))
		}
	})
}

func (w *serveWorkload) setup(traced bool) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w.model = w.build(w.cfg.Seed)
	t1 := time.Now()
	if err := w.construct(traced); err != nil {
		return st, err
	}
	t2 := time.Now()
	done := int64(0)
	_, attempted, failed := w.loop(func() bool { return atomic.AddInt64(&done, 1) > int64(w.warmupOps) }, nil)
	st.build, st.construct, st.warmup = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	if failed > 0 {
		return st, fmt.Errorf("%d of %d warm-up requests failed", failed, attempted)
	}
	return st, nil
}

func (w *serveWorkload) construct(traced bool) error {
	if !w.overHTTP {
		opts := w.opts
		if traced {
			opts = append(opts[:len(opts):len(opts)], d500.WithSession(d500.WithHook(w.hook)))
		}
		srv, err := d500.NewServer(w.model, opts...)
		w.server = srv
		return err
	}
	// As cmd/d500serve wires it: metrics hook on the replicas, registry
	// with one tenant, /metrics beside the request-counting middleware.
	metrics := d500.NewMetrics()
	hook := metrics.Hook()
	if traced {
		hook = d500.MultiHook(hook, w.hook)
	}
	reg, err := d500.NewRegistry()
	if err != nil {
		return err
	}
	w.registry = reg
	opts := append(w.opts[:len(w.opts):len(w.opts)], d500.WithSession(d500.WithHook(hook)))
	if err := reg.Load(w.model.Name, d500.ModelSpec{Version: "bench", Model: w.model, Options: opts}); err != nil {
		return err
	}
	metrics.ObserveRegistry(reg)
	var handler http.Handler = metrics.Middleware(reg.Handler(nil), nil)
	if traced {
		handler = w.middleware(handler)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/", handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/v1/infer"
	w.httpSrv = &http.Server{Handler: mux}
	w.served = make(chan error, 1)
	go func(srv *http.Server) { w.served <- srv.Serve(ln) }(w.httpSrv)
	// One keep-alive socket per caller.
	w.clients = make([]*http.Client, w.callers)
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	}
	return nil
}

func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Shutdown errors only say the deadline passed; the instance is being
	// discarded either way.
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.httpSrv != nil {
		w.httpSrv.Shutdown(ctx)
		<-w.served
	}
	if w.registry != nil {
		w.registry.Close(ctx)
	}
	if w.server != nil {
		w.server.Close(ctx)
	}
	w.clients, w.httpSrv, w.registry, w.server = nil, nil, nil, nil
}

func (w *serveWorkload) drive(deadline time.Time, rec *recorder) ([]float64, int, int, error) {
	w.tracing.Store(rec)
	defer w.tracing.Store(nil)
	ops, attempted, failed := w.loop(func() bool { return !time.Now().Before(deadline) }, rec)
	return ops, attempted, failed, nil
}

// loop runs the closed-loop callers until stop says so. Each caller draws
// pool rows from its own seeded stream. A failed op is counted, not fatal:
// the run still reports.
func (w *serveWorkload) loop(stop func() bool, rec *recorder) (opMS []float64, attempted, failed int) {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rngFor(w.cfg.Seed, seedCaller, c)
			var mine []float64
			var firstErr error
			n := 0
			for ; !stop(); n++ {
				ms, err := w.op(c, rng.Intn(len(w.pool)), rec)
				if err == nil {
					mine = append(mine, ms)
				} else if firstErr == nil {
					firstErr = err
				}
			}
			mu.Lock()
			opMS = append(opMS, mine...)
			attempted += n
			failed += n - len(mine)
			if first == nil {
				first = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if failed > 0 {
		fmt.Printf("  %d of %d requests failed; first: %v\n", failed, attempted, first)
	}
	return opMS, attempted, failed
}

// op sends pool row `row` and checks the reply. The latency, in ms, is what
// the caller observes (encode, round trip and decode on HTTP) and excludes
// the check.
func (w *serveWorkload) op(caller, row int, rec *recorder) (float64, error) {
	op := w.nextOp.Add(1)
	var reqID int64
	if rec != nil {
		reqID = rec.newID()
	}
	start := time.Now()
	var got map[string][]float32
	var err error
	if w.overHTTP {
		got, err = w.inferHTTP(caller, row, op, reqID, start, rec)
	} else {
		got, err = w.inferDirect(row)
	}
	if err != nil {
		return 0, err
	}
	end := time.Now()
	if rec != nil {
		rec.add(reqID, 0, op, "client.request", rec.at(start), rec.at(end))
	}
	return end.Sub(start).Seconds() * 1e3, compare(got, w.refs[row])
}

func (w *serveWorkload) inferDirect(row int) (map[string][]float32, error) {
	out, err := w.server.Infer(context.Background(), feed(w.pool[row]))
	if err != nil {
		if errors.Is(err, d500.ErrOverloaded) {
			w.rejected.Add(1)
		}
		return nil, err
	}
	got := make(map[string][]float32, len(out))
	for name, t := range out {
		got[name] = t.Data()
	}
	return got, nil
}

func (w *serveWorkload) inferHTTP(caller, row int, op, reqID int64, start time.Time, rec *recorder) (map[string][]float32, error) {
	body, err := encodeRequest(w.pool[row])
	if err != nil {
		return nil, err
	}
	encoded := time.Now()
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var tripID int64
	if rec != nil {
		tripID = rec.newID()
		req.Header.Set(opHeader, fmt.Sprintf("%d/%d", op, tripID))
	}
	resp, err := w.clients[caller].Do(req)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	received := time.Now()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			w.rejected.Add(1)
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, payload)
	}
	var decoded wireResponse
	if err := json.Unmarshal(payload, &decoded); err != nil {
		return nil, err
	}
	got := make(map[string][]float32, len(decoded.Outputs))
	for name, t := range decoded.Outputs {
		got[name] = t.Data
	}
	if rec != nil {
		rec.add(rec.newID(), reqID, op, "client.encode", rec.at(start), rec.at(encoded))
		rec.add(tripID, reqID, op, "client.roundtrip", rec.at(encoded), rec.at(received))
		rec.add(rec.newID(), reqID, op, "client.decode", rec.at(received), rec.now())
	}
	return got, nil
}

// compare is the reference-vs-candidate check: every reference output
// present and equal within rtol 1e-4, atol 1e-5. Under coalescing this also
// pins that a row's result does not depend on its batch.
func compare(got, want map[string][]float32) error {
	for name, ref := range want {
		out, ok := got[name]
		if !ok || len(out) != len(ref) {
			return fmt.Errorf("output %q: got %d values, want %d", name, len(out), len(ref))
		}
		for i, v := range ref {
			if diff := math.Abs(float64(out[i] - v)); !(diff <= 1e-5+1e-4*math.Abs(float64(v))) {
				return fmt.Errorf("output %q[%d] = %g, reference %g", name, i, out[i], v)
			}
		}
	}
	return nil
}

func (w *serveWorkload) layers(base, traced segment, rec *recorder, probe *hostProbe, out map[string]float64) ([]string, error) {
	var findings []string
	parent := "client.request"
	if w.overHTTP {
		parent = "serve.http"
	}
	if n := rec.attachBatches(parent); n > 0 {
		findings = append(findings, fmt.Sprintf("%d of %d batches matched no %s span", n, len(rec.batches), parent))
	}
	slowdown := traced.slowdown()
	st := summarize(rec.spans, 1/slowdown)
	us := func(samples []float64, q float64) float64 { return percentile(samples, q) / 1e3 }
	out["client.encode_p50_us"] = us(st.dur["client.encode"], 0.5)
	out["client.decode_p50_us"] = us(st.dur["client.decode"], 0.5)
	out["client.net_self_p50_us"] = us(st.self["client.roundtrip"], 0.5)
	out["serve.http_p50_us"] = us(st.dur["serve.http"], 0.5)
	if w.overHTTP {
		out["serve.http_self_p50_us"] = us(st.self["serve.http"], 0.5)
	}

	if len(rec.batches) == 0 {
		return nil, errors.New("no ServeSample event arrived in the traced segment")
	}
	var waits, execs []float64
	var rows int
	var busy float64
	byRows := make(map[int]int)
	for _, b := range rec.batches {
		waits = append(waits, float64(b.waitNS)/slowdown)
		execs = append(execs, float64(b.execNS)/slowdown)
		rows += b.rows
		busy += float64(b.execNS)
		byRows[b.rows]++
	}
	out["serve.queue_wait_p50_us"] = us(waits, 0.5)
	out["serve.queue_wait_p95_us"] = us(waits, 0.95)
	out["serve.exec_p50_us"] = us(execs, 0.5)
	out["serve.rows_per_batch"] = float64(rows) / float64(len(rec.batches))
	out["serve.batches_per_s"] = float64(len(rec.batches)) / traced.refBusy.Seconds()
	out["serve.replica_busy_frac"] = busy / (float64(traced.busy) * replicas)
	out["serve.rejected"] = float64(w.rejected.Load())

	// The budget: the parts, each at its median, against the whole.
	latencyUS := median(traced.refOpMS) * 1e3
	parts := out["client.encode_p50_us"] + out["client.net_self_p50_us"] + out["serve.http_self_p50_us"] +
		out["serve.queue_wait_p50_us"] + out["serve.exec_p50_us"] + out["client.decode_p50_us"]
	residual := math.Abs(latencyUS-parts) / latencyUS
	out["serve.budget_residual_frac"] = residual
	if residual > 0.1 {
		findings = append(findings, fmt.Sprintf("latency budget does not add up: parts sum to %.0f us of a %.0f us median request (residual %.0f%%)", parts, latencyUS, 100*residual))
	}

	flops, err := flopsPerRow(w.model)
	if err != nil {
		return nil, err
	}
	out["kernels.flops_per_row"] = float64(flops)
	out["kernels.gflop_per_s"] = float64(flops) * base.opsPerS() / 1e9

	modal, most := 1, 0
	for r, n := range byRows {
		if n > most || (n == most && r < modal) {
			modal, most = r, n
		}
	}
	return findings, w.replay(modal, probe, out)
}

// replay runs the model on an executor of the benchmark's own, at the batch
// size the server ran most often, to see inside a pass: executor.Events are
// not reachable on the server's replicas from outside.
func (w *serveWorkload) replay(rows int, probe *hostProbe, out map[string]float64) error {
	const passes = 200
	var tally passTally
	infer, err := newObservedExecutor(w.model, tally.observer(nil))
	if err != nil {
		return err
	}
	batch := make([]float32, 0, rows*imageVol)
	for i := 0; i < rows; i++ {
		batch = append(batch, w.pool[i%len(w.pool)]...)
	}
	feeds := map[string]*Tensor{"x": tensorOf(batch, rows, 1, imageSide, imageSide)}
	s0, err := probe.slowdown()
	if err != nil {
		return err
	}
	for i := 0; i < passes; i++ {
		if err := infer(context.Background(), feeds); err != nil {
			return err
		}
	}
	s1, err := probe.slowdown()
	if err != nil {
		return err
	}
	tally.fill(out, passes, (s0+s1)/2)
	return nil
}
