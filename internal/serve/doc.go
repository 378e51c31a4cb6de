// Package serve is the streaming admission front end over the batch
// pipeline: a long-lived Service that ingests a concurrent stream of
// admission requests, coalesces them into micro-batches and answers
// them through a cac.Controller — amortised by cac.DecideAll whenever
// the controller has a native batch path.
//
// # Architecture
//
// All work funnels through one intake queue into a single decision
// goroutine. Submitters (any number, any goroutine) enqueue requests
// with Submit, caller-defined batches with SubmitAll, and control
// operations — Tick, Release, UpdateState, Do — as first-class queue
// items. The loop coalesces consecutive single requests until MaxBatch
// requests are pending or MaxDelay has passed since the first one, then
// decides the micro-batch in one DecideBatch call and fans the
// responses back with per-request latency. Because decisions, commits,
// ticks and state updates all execute in that one goroutine in queue
// order, stateful controllers such as the SCC demand ledger keep their
// invariants with no locking of their own.
//
// # Decision semantics
//
// Within one micro-batch every request is decided against the same
// station snapshot (the cac.BatchController contract). Without Commit
// the service never mutates stations, so micro-batch boundaries —
// which depend on arrival timing — provably cannot change any outcome:
// a streamed run is byte-identical to cac.DecideAll over the same
// requests. With Commit the service allocates accepted calls between
// batches; timing-dependent boundaries then matter, so closed-loop
// drivers that need reproducibility submit waves (SubmitAll), which
// are chunked at deterministic MaxBatch boundaries only. The
// determinism suite in serve_test.go pins both contracts.
//
// # Entry points
//
// New starts a Service; Submit/SubmitAll stream requests; Tick,
// Release and UpdateState forward controller lifecycle events; Do and
// Flush are serialized barriers; Stats snapshots throughput, latency
// (avg/max plus p50/p99 from a mergeable power-of-two histogram),
// accept-rate and batching counters; Close drains and stops.
//
// Two pieces are shared with front ends that run their own decisions:
// DecideChunk is the decide-commit-observe step of every micro-batch
// and wave chunk, and Intake is a Service's coalescing front half
// (SubmitAsync, MaxBatch/MaxDelay batching, Drain) handing each batch
// to a caller-supplied decide function. The internal/shard engine
// builds on both: it scales admission horizontally with one controller
// per cell shard, executed on the caller, and fronts its singles with
// one Intake. The cmd/facs-serve binary serves the sharded engine
// behind a newline-delimited JSON listener on stdin or TCP.
package serve
