package main

// The benchmark's contract in one place: workloads, end-to-end metrics with
// their bounds, per-layer metrics. BENCHMARK.json at the root of the
// repository states the same and a test keeps the two equal.

type workloadSpec struct {
	Name string
	Why  string
	new  func(cfg runConfig) workload
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Exact  bool    // per-layer only: a count that must repeat exactly between runs
}

var workloads = []workloadSpec{
	{"serve_lenet_http", "compute- and codec-bound serving on the shipped registry/HTTP path: conv kernels, executor, JSON and net/http do the work; batches hold 1-2 rows so coalescing is bypassed", newServeLeNetHTTP},
	{"serve_mlp_batched", "library-embedded serve.Server under 16 callers: queue, coalescing and GEMM at 4-8 rows per batch do the work; HTTP and conv do none", newServeMLPBatched},
	{"train_lenet", "single-process training step: forward and backward conv/GEMM kernels dominate, sampler, optimizer update and allocation are the rest; no communication", newTrainLeNet},
	{"train_tcp_mlp", "two ranks over loopback TCP with ring all-reduce DSGD: the only workload where dist and transport carry a visible share of the step", newTrainTCPMLP},
}

// An op is one request on serve_* and one training step on train_*.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// A per-layer metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "client.encode_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.decode_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.net_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_p95_us", Unit: "us", Better: "lower"},
	{Name: "serve.exec_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.rows_per_batch", Unit: "count", Better: "higher"},
	{Name: "serve.batches_per_s", Unit: "1/s", Better: "lower"},
	{Name: "serve.replica_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.budget_residual_frac", Unit: "frac", Better: "lower"},
	{Name: "executor.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.dispatch_self_frac", Unit: "frac", Better: "lower"},
	{Name: "executor.nodes_per_pass", Unit: "count", Better: "lower", Exact: true},
	{Name: "kernels.conv_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.conv_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.gemm_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.gemm_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.other_fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.other_bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "kernels.flops_per_row", Unit: "count", Better: "lower", Exact: true},
	{Name: "kernels.gflop_per_s", Unit: "GFLOP/s", Better: "higher"},
	{Name: "training.sample_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "training.update_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "training.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "training.steps", Unit: "count", Better: "higher"},
	{Name: "training.loss_at_end", Unit: "loss", Better: "lower"},
	{Name: "dist.allreduce_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "dist.allreduce_calls_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "dist.comm_frac", Unit: "frac", Better: "lower"},
	{Name: "dist.step_ratio_vs_ref", Unit: "ratio", Better: "lower"},
	{Name: "transport.sent_bytes_per_step", Unit: "B", Better: "lower", Exact: true},
	{Name: "transport.frames_per_step", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.wire_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "setup.model_build_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
