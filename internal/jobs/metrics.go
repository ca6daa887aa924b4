package jobs

import (
	"net/http"
	"sync/atomic"

	"deep500/internal/obs"
)

// Metrics is the control plane's observability surface: every canonical
// d500_dist_* name (obs.DistNames) on one registry, exposed at /metrics in
// Prometheus text format alongside the job API.
type Metrics struct {
	reg *obs.Registry

	JobsSubmitted     *obs.Counter
	JobsSucceeded     *obs.Counter
	JobsFailed        *obs.Counter
	WorkerRestarts    *obs.Counter
	Heartbeats        *obs.Counter
	HeartbeatTimeouts *obs.Counter
	JobsRunning       *UpDown
	WorkersRunning    *UpDown
}

// UpDown adapts the set-only obs.Gauge into the inc/dec counter the
// lifecycle code wants for "currently running" quantities.
type UpDown struct {
	g *obs.Gauge
	v atomic.Int64
}

func (u *UpDown) Inc() { u.g.Set(float64(u.v.Add(1))) }
func (u *UpDown) Dec() { u.g.Set(float64(u.v.Add(-1))) }

// NewMetrics registers the distributed control-plane metrics on a fresh
// registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg: reg,
		JobsSubmitted: reg.Counter(obs.MetricDistJobsSubmittedTotal,
			"Training jobs accepted by POST /v1/jobs."),
		JobsRunning: &UpDown{g: reg.Gauge(obs.MetricDistJobsRunning,
			"Jobs currently in the deploying or running state.")},
		JobsSucceeded: reg.Counter(obs.MetricDistJobsSucceededTotal,
			"Jobs that reached the succeeded state."),
		JobsFailed: reg.Counter(obs.MetricDistJobsFailedTotal,
			"Jobs that reached the failed state."),
		WorkersRunning: &UpDown{g: reg.Gauge(obs.MetricDistWorkersRunning,
			"Rank processes currently alive across all jobs.")},
		WorkerRestarts: reg.Counter(obs.MetricDistWorkerRestartsTotal,
			"Worker processes restarted from checkpoint after a crash."),
		Heartbeats: reg.Counter(obs.MetricDistHeartbeatsTotal,
			"Heartbeats received from rank processes."),
		HeartbeatTimeouts: reg.Counter(obs.MetricDistHeartbeatTimeoutTotal,
			"Rank processes killed for missing their heartbeat deadline."),
	}
}

// Handler serves the registry in Prometheus text exposition format.
func (m *Metrics) Handler() http.Handler { return m.reg.Handler() }
