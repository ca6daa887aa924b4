package obs

// Canonical metric names. Every metric the d500 layer and the distributed
// control plane register is named here, and Names() is the single source
// of truth the tools/docscheck metrics↔docs conformance gate compares
// against docs/operations.md: a metric added without a doc row (or
// documented without existing) fails CI.
const (
	// Serving (d500serve /metrics).
	MetricServeRequestsTotal       = "d500_serve_requests_total"
	MetricServeQueueDepth          = "d500_serve_queue_depth"
	MetricServeQueueCapacity       = "d500_serve_queue_capacity"
	MetricServeBatchesTotal        = "d500_serve_batches_total"
	MetricServeBatchRowsTotal      = "d500_serve_batch_rows_total"
	MetricServeBatchOccupancy      = "d500_serve_batch_occupancy"
	MetricServeBatchLatencySeconds = "d500_serve_batch_latency_seconds"
	MetricServeQueueWaitSeconds    = "d500_serve_queue_wait_seconds"
	MetricServeRejectedTotal       = "d500_serve_rejected_total"
	MetricServeExpiredTotal        = "d500_serve_expired_total"
	MetricServeFailedTotal         = "d500_serve_failed_total"
	MetricServeReplicas            = "d500_serve_replicas"
	MetricServeReplicasLive        = "d500_serve_replicas_live"
	MetricServeReplicaCrashesTotal = "d500_serve_replica_crashes_total"
	MetricServeReplicaRespawns     = "d500_serve_replica_respawns_total"

	// Multi-tenant serving (model registry + autoscaler).
	MetricServeModels             = "d500_serve_models"
	MetricServeModelLoadsTotal    = "d500_serve_model_loads_total"
	MetricServeModelSwapsTotal    = "d500_serve_model_swaps_total"
	MetricServeModelUnloadsTotal  = "d500_serve_model_unloads_total"
	MetricServeShedTotal          = "d500_serve_shed_total"
	MetricServeScaleUpsTotal      = "d500_serve_scale_ups_total"
	MetricServeScaleDownsTotal    = "d500_serve_scale_downs_total"
	MetricServeModelRequestsTotal = "d500_serve_model_requests_total"
	MetricServeModelQueueDepth    = "d500_serve_model_queue_depth"
	MetricServeModelReplicasLive  = "d500_serve_model_replicas_live"

	// Training (Session.Train through a Metrics hook).
	MetricTrainStepsTotal       = "d500_train_steps_total"
	MetricTrainLoss             = "d500_train_loss"
	MetricTrainAccuracy         = "d500_train_accuracy"
	MetricTrainEpochsTotal      = "d500_train_epochs_total"
	MetricCheckpointWritesTotal = "d500_checkpoint_writes_total"

	// Distributed job control plane (d500dist -role launch /metrics).
	MetricDistJobsSubmittedTotal    = "d500_dist_jobs_submitted_total"
	MetricDistJobsRunning           = "d500_dist_jobs_running"
	MetricDistJobsSucceededTotal    = "d500_dist_jobs_succeeded_total"
	MetricDistJobsFailedTotal       = "d500_dist_jobs_failed_total"
	MetricDistWorkersRunning        = "d500_dist_workers_running"
	MetricDistWorkerRestartsTotal   = "d500_dist_worker_restarts_total"
	MetricDistHeartbeatsTotal       = "d500_dist_heartbeats_total"
	MetricDistHeartbeatTimeoutTotal = "d500_dist_heartbeat_timeouts_total"

	// Tracing (internal/obs/trace flight recorder, via Metrics.ObserveTracer).
	MetricTraceSpansTotal         = "d500_trace_spans_total"
	MetricTraceSpansDroppedTotal  = "d500_trace_spans_dropped_total"
	MetricTraceTracesSampledTotal = "d500_trace_traces_sampled_total"
)

// CoreNames returns the canonical names registered by the d500 session
// layer (serving + training), in declaration order.
func CoreNames() []string {
	return []string{
		MetricServeRequestsTotal,
		MetricServeQueueDepth,
		MetricServeQueueCapacity,
		MetricServeBatchesTotal,
		MetricServeBatchRowsTotal,
		MetricServeBatchOccupancy,
		MetricServeBatchLatencySeconds,
		MetricServeQueueWaitSeconds,
		MetricServeRejectedTotal,
		MetricServeExpiredTotal,
		MetricServeFailedTotal,
		MetricServeReplicas,
		MetricServeReplicasLive,
		MetricServeReplicaCrashesTotal,
		MetricServeReplicaRespawns,
		MetricServeModels,
		MetricServeModelLoadsTotal,
		MetricServeModelSwapsTotal,
		MetricServeModelUnloadsTotal,
		MetricServeShedTotal,
		MetricServeScaleUpsTotal,
		MetricServeScaleDownsTotal,
		MetricServeModelRequestsTotal,
		MetricServeModelQueueDepth,
		MetricServeModelReplicasLive,
		MetricTrainStepsTotal,
		MetricTrainLoss,
		MetricTrainAccuracy,
		MetricTrainEpochsTotal,
		MetricCheckpointWritesTotal,
	}
}

// DistNames returns the canonical names registered by the distributed job
// control plane (internal/jobs), in declaration order.
func DistNames() []string {
	return []string{
		MetricDistJobsSubmittedTotal,
		MetricDistJobsRunning,
		MetricDistJobsSucceededTotal,
		MetricDistJobsFailedTotal,
		MetricDistWorkersRunning,
		MetricDistWorkerRestartsTotal,
		MetricDistHeartbeatsTotal,
		MetricDistHeartbeatTimeoutTotal,
	}
}

// TraceNames returns the canonical names of the tracing counters,
// registered wherever a tracer is observed (Metrics.ObserveTracer, the
// d500dist launcher), in declaration order.
func TraceNames() []string {
	return []string{
		MetricTraceSpansTotal,
		MetricTraceSpansDroppedTotal,
		MetricTraceTracesSampledTotal,
	}
}

// Names returns every canonical metric name, in declaration order.
func Names() []string {
	return append(append(CoreNames(), DistNames()...), TraceNames()...)
}
