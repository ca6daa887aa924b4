// Package d500 is the public API of Deep500-Go: the one supported way to
// construct and drive the stack that cmd/ binaries, examples and external
// consumers use instead of reaching into internal/ packages.
//
// A Session is assembled from typed functional options and resolves its
// configuration at construction, returning errors instead of panicking:
//
//	sess, err := d500.New(
//		d500.WithArena(),
//		d500.WithSeed(42),
//	)
//	if err != nil { ... }
//	if err := sess.Open(model); err != nil { ... }
//	out, err := sess.Infer(ctx, feeds)
//
// Every execution entry point — Infer, Train, Evaluate, Bench, Trainer
// steps — takes a context.Context that is observed between operator
// dispatches, training steps and suite experiments, so callers get
// cancellation and deadlines through the full execution chain.
//
// Observation happens through a single structured event stream: install a
// Hook with WithHook and receive typed StepEnd / EpochEnd / EvalEnd /
// BenchSample / ServeSample events. ConsoleHook renders that stream as
// the progress lines and sample tables the binaries print.
//
// For online inference, NewServer wraps a model in the serving
// subsystem — a dynamic micro-batching queue over a pool of session
// replicas with bounded admission — for in-process callers. Over HTTP a
// model is served from a Registry, whose JSON front end routes
// POST /v1/infer to the sole loaded model:
//
//	reg, err := d500.NewRegistry()
//	if err != nil { ... }
//	err = reg.Load("lenet", d500.ModelSpec{Version: "v1", Model: model,
//		Options: []d500.ServerOption{d500.WithMaxBatch(8), d500.WithReplicas(4)}})
//	if err != nil { ... }
//	http.ListenAndServe(":8500", reg.Handler(nil))
//
// Session.Save and Load round-trip trained weights through the D5NX
// checkpoint format, so a train → Save → Load → serve pipeline
// reproduces inference exactly.
//
// For operations, Metrics aggregates the event stream and the server's
// stats into a dependency-free Prometheus /metrics endpoint with a JSON
// request-log middleware; replica panics are isolated (ErrReplicaCrash,
// optional respawn via WithRespawn); and TrainConfig.CheckpointPath plus
// Resume give exact-resume training checkpoints — a killed run restarts
// from its checkpoint and reproduces the uninterrupted loss trajectory
// bitwise. The runbook is docs/operations.md.
package d500
