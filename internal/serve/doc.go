// Package serve is the streaming admission front end over the batch
// pipeline: a long-lived Service that ingests a concurrent stream of
// admission requests, coalesces them into micro-batches and answers
// them through a cac.Controller — amortised by cac.DecideAllInto
// whenever the controller has a native batch path.
//
// # Architecture
//
// Two pieces make up a Service, and every other front end reuses them.
// Core is the one decide-commit-observe-count step: it decides a chunk
// of requests, commits accepted calls in Commit mode, notifies an
// observer controller and counts the outcomes; its methods are also
// the bodies of the control operations (Tick, Release, UpdateState,
// Do) and of a handoff's two phases (Depart, Handoff). A Core is not
// safe for concurrent use. Intake is the single-request front half:
// SubmitAsync enqueues, and one intake goroutine coalesces consecutive
// singles until MaxBatch requests are pending or MaxDelay has passed
// since the first one, then hands the micro-batch to its owner.
//
// A Service is one Core behind a mutex, fronted by one Intake. The
// intake goroutine decides each micro-batch under the mutex and fans
// the responses back with their latency. Waves (SubmitAllInto) and
// control operations (Tick, Release) run on the calling goroutine:
// each first drains the intake, so it is ordered after every single
// already enqueued, then runs under the mutex and returns once applied.
// Because decisions, commits, ticks and releases all hold that one
// mutex, stateful controllers such as the SCC demand ledger keep their
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
// drivers that need reproducibility submit waves (SubmitAllInto), which
// are chunked at deterministic MaxBatch boundaries only. The
// determinism suite in serve_test.go pins both contracts.
//
// # Entry points
//
// New starts a Service; SubmitAsync streams single requests and
// SubmitAllInto decides a wave; Tick and Release forward controller
// lifecycle events; Flush waits for the singles already submitted;
// Stats snapshots throughput, latency (avg/max plus p50/p99 from a
// mergeable power-of-two histogram), accept-rate and batching counters;
// Close drains and stops. Each operation has this one entry point:
// waves always take a caller-owned buffer, and a blocking single is
// <-SubmitAsync(req). The binaries and closed-loop drivers use the
// sharded engine or a Core directly; the Service is the one-Core front
// end that perfbench's serve rung measures.
//
// The internal/shard engine builds on the same pieces: it scales
// admission horizontally with one Core per cell shard, executed on the
// caller under the shard's lock, and fronts its singles with one
// Intake. The metropolis driver's inline engine and the paper's
// single- and multi-cell simulators (experiments.RunSingleCell,
// RunMultiCell) each drive one Core directly. The cmd/facs-serve binary serves the sharded engine behind
// a newline-delimited JSON listener on stdin or TCP.
package serve
