// Package deep500 is the root of Deep500-Go, a from-scratch Go reproduction
// of "A Modular Benchmarking Infrastructure for High-Performance and
// Reproducible Deep Learning" (Ben-Nun et al., IPDPS 2019).
//
// The supported entry point is the d500 package: a d500.Session assembled
// from typed functional options (WithFramework, WithSeed, WithHook) with
// Open/Infer/Train/Evaluate/Bench methods, context-aware execution
// through the whole chain, and a structured event stream
// (StepEnd/EpochEnd/BenchSample/ServeSample) as the single
// observation channel. For online inference, d500.NewServer puts a model
// behind the serving subsystem (internal/serve): a dynamic micro-batching
// queue over a pool of session replicas with bounded admission, fronted
// by HTTP JSON in cmd/d500serve; d500.Load and Session.Save round-trip
// trained weights through the D5NX checkpoint format. Everything under
// internal/ is an implementation detail; cmd/ and examples/ consume only
// the public API. See README.md §"Public API" for the migration table
// from the old internal entry points, ARCHITECTURE.md for the layer map,
// the dataflow of one Session.Train call and the lifetime of one serving
// request, and docs/serving.md for batching semantics and backpressure.
//
// The root package carries only the repository-level benchmark harness
// (bench_test.go): one benchmark per paper table/figure plus ablations of
// this reproduction's own design choices: the GEMM and convolution
// algorithms, the all-reduce algorithm, a fused versus a composed Adam
// update, and the sampler's shuffle buffer.
//
// Machine-readable benchmark results live in internal/bench: d500bench
// emits bench.Report JSON (environment capture, raw samples, derived
// stats), and internal/core's TestPaperRecordsGolden pins every
// deterministic record of the paper experiments exactly. See README.md
// §"Benchmarking" for the schema and the golden's regeneration workflow.
package deep500
