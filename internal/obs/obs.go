// Package obs is the observability layer: a dependency-free metrics
// registry rendering the Prometheus text exposition format. The d500 layer
// aggregates its typed Hook events (StepEnd, ServeSample,
// ReplicaDown, ...) into these counters, gauges and fixed-bucket histograms
// and mounts the registry as GET /metrics on d500serve — turning the
// paper's measurement philosophy (every level instrumented) into an ops
// surface a standard Prometheus scraper can read.
//
// Public entry points: NewRegistry and its constructors (Counter,
// CounterVec, Gauge, GaugeFunc, CounterFunc, Histogram), Registry.Handler /
// Registry.Render for exposition, and the canonical metric-name constants
// in names.go (whose list Names() backs the docs conformance gate in
// tools/docscheck).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// DefLatencyBuckets are the default latency histogram bounds in seconds,
// spanning 100µs to 2.5s — micro-batch passes on small models sit in the
// low milliseconds; the long tail catches cold starts and overload.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// metric is one registered series family with its metadata and renderer.
type metric struct {
	name, help, typ string
	render          func(w io.Writer, name string) error
}

// Registry holds named metrics and renders them sorted by name, so the
// same state always produces the same exposition bytes (determinism,
// paper pillar 5). All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) register(name, help, typ string, render func(io.Writer, string) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.metrics[name] = &metric{name: name, help: help, typ: typ, render: render}
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu  sync.Mutex
	val float64
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer, name string) error {
		c.mu.Lock()
		v := c.val
		c.mu.Unlock()
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
		return err
	})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be non-negative; counters only go up).
func (c *Counter) Add(v float64) {
	c.mu.Lock()
	c.val += v
	c.mu.Unlock()
}

// CounterVec is a family of counters split by one label.
type CounterVec struct {
	label string
	mu    sync.Mutex
	vals  map[string]float64
}

// CounterVec registers and returns a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	c := &CounterVec{label: label, vals: make(map[string]float64)}
	r.register(name, help, "counter", func(w io.Writer, name string) error {
		c.mu.Lock()
		keys := make([]string, 0, len(c.vals))
		for k := range c.vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		type kv struct {
			k string
			v float64
		}
		rows := make([]kv, len(keys))
		for i, k := range keys {
			rows[i] = kv{k, c.vals[k]}
		}
		c.mu.Unlock()
		for _, row := range rows {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", name, c.label, row.k, fmtFloat(row.v)); err != nil {
				return err
			}
		}
		return nil
	})
	return c
}

// Inc adds one to the counter for the given label value.
func (c *CounterVec) Inc(labelValue string) {
	c.mu.Lock()
	c.vals[labelValue]++
	c.mu.Unlock()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	mu  sync.Mutex
	val float64
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w io.Writer, name string) error {
		g.mu.Lock()
		v := g.val
		g.mu.Unlock()
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
		return err
	})
	return g
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.val = v
	g.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from f at scrape time —
// the natural shape for state someone else owns (queue length, live
// replica count).
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, "gauge", func(w io.Writer, name string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(f()))
		return err
	})
}

// CounterFunc registers a counter whose value is read from f at scrape
// time. f must be monotonic (a counter someone else already accumulates,
// e.g. a serve.Stats field).
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, "counter", func(w io.Writer, name string) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(f()))
		return err
	})
}

// renderVecFunc writes one labeled series per map entry, label values
// sorted, so the same state always renders the same bytes.
func renderVecFunc(w io.Writer, name, label string, f func() map[string]float64) error {
	vals := f()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %s\n", name, label, k, fmtFloat(vals[k])); err != nil {
			return err
		}
	}
	return nil
}

// GaugeVecFunc registers a one-label gauge family whose series set and
// values are read from f at scrape time — the natural shape for
// per-tenant state someone else owns (a model registry's queue depths):
// series appear and disappear as tenants load and unload.
func (r *Registry) GaugeVecFunc(name, help, label string, f func() map[string]float64) {
	r.register(name, help, "gauge", func(w io.Writer, name string) error {
		return renderVecFunc(w, name, label, f)
	})
}

// CounterVecFunc registers a one-label counter family read from f at
// scrape time. Each series must be monotonic for as long as it exists;
// a series vanishing (tenant unloaded) is fine — Prometheus treats it
// as a staleness marker, not a reset.
func (r *Registry) CounterVecFunc(name, help, label string, f func() map[string]float64) {
	r.register(name, help, "counter", func(w io.Writer, name string) error {
		return renderVecFunc(w, name, label, f)
	})
}

// Histogram is a fixed-bucket cumulative histogram of observations.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // per-bound; observations beyond the last bound only hit +Inf
	inf    uint64
	sum    float64
}

// Histogram registers and returns a histogram with the given upper bounds
// (ascending). Nil bounds select DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds))}
	r.register(name, help, "histogram", func(w io.Writer, name string) error {
		h.mu.Lock()
		counts := append([]uint64(nil), h.counts...)
		inf := h.inf
		sum := h.sum
		h.mu.Unlock()
		var cum uint64
		for i, b := range h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum); err != nil {
				return err
			}
		}
		cum += inf
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return err
	})
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.sum += v
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		h.inf++
	}
	h.mu.Unlock()
}

// fmtFloat renders a float the way Prometheus expects (shortest
// round-trippable decimal, no exponent for typical values).
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes every registered metric in text exposition format,
// sorted by name.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	ms := make([]*metric, len(names))
	for i, name := range names {
		ms[i] = r.metrics[name]
	}
	r.mu.Unlock()
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		if err := m.render(w, m.name); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Render(w)
	})
}
