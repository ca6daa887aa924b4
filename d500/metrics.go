package d500

import (
	"io"
	"net/http"

	"deep500/internal/obs"
)

// Metrics aggregates the session/server event stream and serving counters
// into a Prometheus-scrapable registry — the production observability
// surface documented in docs/operations.md. Build one with NewMetrics,
// install Hook() on the sessions/servers to observe, call
// ObserveRegistry to export the serving gauges, and mount Handler() as GET
// /metrics (this is what cmd/d500serve does).
type Metrics struct {
	reg *obs.Registry

	requests *obs.CounterVec

	batchLatency *obs.Histogram
	queueWait    *obs.Histogram

	trainSteps  *obs.Counter
	trainEpochs *obs.Counter
	trainLoss   *obs.Gauge
	trainAcc    *obs.Gauge
	ckptWrites  *obs.Counter
}

// NewMetrics builds a registry with the event-driven series registered
// (request counts, latency histograms, training progress). The
// Stats-driven serving gauges appear once ObserveRegistry binds a Registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		requests: reg.CounterVec(obs.MetricServeRequestsTotal,
			"HTTP requests served, by status code.", "code"),
		batchLatency: reg.Histogram(obs.MetricServeBatchLatencySeconds,
			"Batched forward-pass execution time in seconds.", nil),
		queueWait: reg.Histogram(obs.MetricServeQueueWaitSeconds,
			"Admission-to-dispatch queue wait of each batch's oldest request, in seconds.", nil),
		trainSteps: reg.Counter(obs.MetricTrainStepsTotal,
			"Optimization steps completed."),
		trainEpochs: reg.Counter(obs.MetricTrainEpochsTotal,
			"Training epochs completed."),
		trainLoss: reg.Gauge(obs.MetricTrainLoss,
			"Loss of the most recent training step."),
		trainAcc: reg.Gauge(obs.MetricTrainAccuracy,
			"Minibatch accuracy of the most recent training step."),
		ckptWrites: reg.Counter(obs.MetricCheckpointWritesTotal,
			"Training checkpoints durably written."),
	}
}

// Hook returns an event hook feeding the registry; chain it with other
// consumers via MultiHook. Like every Hook it relies on the emitter's
// serialization guarantees (training events on the training goroutine,
// serve events serialized across replicas) — the underlying metrics are
// additionally thread-safe, so sharing one Metrics between a trainer and a
// server is fine.
func (m *Metrics) Hook() Hook {
	return func(e Event) {
		switch ev := e.(type) {
		case StepEnd:
			m.trainSteps.Inc()
			m.trainLoss.Set(ev.Loss)
			m.trainAcc.Set(ev.Accuracy)
		case EpochEnd:
			m.trainEpochs.Inc()
		case ServeSample:
			m.batchLatency.Observe(ev.Exec.Seconds())
			m.queueWait.Observe(ev.QueueWait.Seconds())
		case CheckpointSaved:
			m.ckptWrites.Inc()
		}
	}
}

// ObserveRegistry exports a multi-tenant registry's counters and gauges,
// read from Registry.Stats and Registry.Models at scrape time so they
// never drift from GET /stats: the aggregate serving series summed across
// tenants (queue depth/capacity, batch totals and occupancy,
// rejection/expiry/failure counts, replica capacity, crashes, respawns and
// autoscaler moves), the registry lifecycle counters (loads/swaps/unloads,
// priority sheds), a loaded-tenant gauge, and per-tenant series labeled by
// model name that appear and vanish with hot load/unload. Call at most
// once per Metrics.
func (m *Metrics) ObserveRegistry(r *Registry) {
	stats := func(f func(ServerStats) float64) func() float64 {
		return func() float64 { return f(r.Stats().Aggregate) }
	}
	lifecycle := func(f func(RegistryStats) uint64) func() float64 {
		return func() float64 { return float64(f(r.Stats())) }
	}
	perModel := func(f func(ModelStatus) float64) func() map[string]float64 {
		return func() map[string]float64 {
			models := r.Models()
			out := make(map[string]float64, len(models))
			for _, st := range models {
				out[st.Name] = f(st)
			}
			return out
		}
	}
	m.reg.GaugeFunc(obs.MetricServeQueueDepth,
		"Current admission-queue length.",
		stats(func(st ServerStats) float64 { return float64(st.QueueDepth) }))
	m.reg.GaugeFunc(obs.MetricServeQueueCapacity,
		"Admission-queue capacity; depth at capacity rejects with 429.",
		stats(func(st ServerStats) float64 { return float64(st.QueueCap) }))
	m.reg.CounterFunc(obs.MetricServeBatchesTotal,
		"Micro-batches executed.",
		stats(func(st ServerStats) float64 { return float64(st.Batches) }))
	m.reg.CounterFunc(obs.MetricServeBatchRowsTotal,
		"Rows served through executed micro-batches.",
		stats(func(st ServerStats) float64 { return float64(st.Rows) }))
	m.reg.GaugeFunc(obs.MetricServeBatchOccupancy,
		"Mean rows per executed micro-batch (rows/batches).",
		stats(func(st ServerStats) float64 { return st.Occupancy }))
	m.reg.CounterFunc(obs.MetricServeRejectedTotal,
		"Requests rejected at admission because the queue was full.",
		stats(func(st ServerStats) float64 { return float64(st.Rejected) }))
	m.reg.CounterFunc(obs.MetricServeExpiredTotal,
		"Requests whose context ended while queued.",
		stats(func(st ServerStats) float64 { return float64(st.Expired) }))
	m.reg.CounterFunc(obs.MetricServeFailedTotal,
		"Requests failed by batch errors, including replica crashes.",
		stats(func(st ServerStats) float64 { return float64(st.Failed) }))
	m.reg.GaugeFunc(obs.MetricServeReplicas,
		"Configured replica floor.",
		stats(func(st ServerStats) float64 { return float64(st.Replicas) }))
	m.reg.GaugeFunc(obs.MetricServeReplicasLive,
		"Replicas currently serving; below the configured floor the pool is degraded.",
		stats(func(st ServerStats) float64 { return float64(st.LiveReplicas) }))
	m.reg.CounterFunc(obs.MetricServeReplicaCrashesTotal,
		"Replica panics recovered.",
		stats(func(st ServerStats) float64 { return float64(st.Crashes) }))
	m.reg.CounterFunc(obs.MetricServeReplicaRespawns,
		"Crashed replicas rebuilt from the shared weights.",
		stats(func(st ServerStats) float64 { return float64(st.Respawns) }))
	m.reg.CounterFunc(obs.MetricServeScaleUpsTotal,
		"Replicas added by the queue-driven autoscaler.",
		stats(func(st ServerStats) float64 { return float64(st.ScaleUps) }))
	m.reg.CounterFunc(obs.MetricServeScaleDownsTotal,
		"Idle replicas retired (drained) by the autoscaler.",
		stats(func(st ServerStats) float64 { return float64(st.ScaleDowns) }))
	m.reg.GaugeFunc(obs.MetricServeModels,
		"Models currently loaded.",
		func() float64 { return float64(len(r.Models())) })
	m.reg.CounterFunc(obs.MetricServeModelLoadsTotal,
		"Models hot-loaded into the registry.",
		lifecycle(func(st RegistryStats) uint64 { return st.Loads }))
	m.reg.CounterFunc(obs.MetricServeModelSwapsTotal,
		"Atomic version swaps (a load replacing a served model).",
		lifecycle(func(st RegistryStats) uint64 { return st.Swaps }))
	m.reg.CounterFunc(obs.MetricServeModelUnloadsTotal,
		"Models unloaded from the registry.",
		lifecycle(func(st RegistryStats) uint64 { return st.Unloads }))
	m.reg.CounterFunc(obs.MetricServeShedTotal,
		"Admissions shed because a higher-priority model was under pressure.",
		lifecycle(func(st RegistryStats) uint64 { return st.Sheds }))
	m.reg.CounterVecFunc(obs.MetricServeModelRequestsTotal,
		"Requests admitted, by model.", "model",
		perModel(func(st ModelStatus) float64 { return float64(st.Stats.Requests) }))
	m.reg.GaugeVecFunc(obs.MetricServeModelQueueDepth,
		"Current admission-queue length, by model.", "model",
		perModel(func(st ModelStatus) float64 { return float64(st.Stats.QueueDepth) }))
	m.reg.GaugeVecFunc(obs.MetricServeModelReplicasLive,
		"Replicas currently serving, by model.", "model",
		perModel(func(st ModelStatus) float64 { return float64(st.Stats.LiveReplicas) }))
}

// ObserveTracer exports the tracer's lifetime counters as the canonical
// d500_trace_* series: spans recorded, spans dropped (late arrivals and
// per-trace overflow) and traces retained by sampling. Values are read
// from Tracer.Counters at scrape time. A nil tracer still registers the
// series (at zero), so dashboards keep a stable shape whether or not
// -trace is on. Call at most once per Metrics.
func (m *Metrics) ObserveTracer(t *Tracer) {
	m.reg.CounterFunc(obs.MetricTraceSpansTotal,
		"Spans recorded into trace buffers.",
		func() float64 { spans, _, _ := t.Counters(); return float64(spans) })
	m.reg.CounterFunc(obs.MetricTraceSpansDroppedTotal,
		"Spans dropped: unretained traces, late arrivals after their root ended, or per-trace buffer overflow.",
		func() float64 { _, dropped, _ := t.Counters(); return float64(dropped) })
	m.reg.CounterFunc(obs.MetricTraceTracesSampledTotal,
		"Traces retained in the flight recorder (head-sampled, tail-sampled slow, errored or forced).",
		func() float64 { _, _, sampled := t.Counters(); return float64(sampled) })
}

// Handler serves the registry in Prometheus text exposition format;
// cmd/d500serve mounts it at GET /metrics.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }

// Middleware wraps an HTTP handler with request accounting: every request
// increments d500_serve_requests_total{code=...}, and when logw is non-nil
// each request is additionally logged as one JSON line (time, method,
// path, status, bytes, duration, remote) — the -log flag of d500serve.
func (m *Metrics) Middleware(next http.Handler, logw io.Writer) http.Handler {
	return obs.Middleware(next, m.requests, logw)
}
