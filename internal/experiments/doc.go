// Package experiments contains the reproduction and load harness: one
// driver per figure of the paper's evaluation section (Figs. 7-10), the
// ablation studies enumerated in ablations.go, the one-shot batch
// admission sweep (RunBatchAdmission), and the one closed-loop driver:
// the metropolis-scale diurnal workload (RunMetropolis) — a hex
// deployment of any size with rush-hour hotspot mobility, runnable
// through the inline batch and internal/shard decision paths.
//
// # Determinism
//
// Every experiment is deterministic for a given configuration: each
// replication derives all of its randomness from its own seed via
// sim.NewStream, so figure results are byte-identical for every worker
// count (RunSingleCellSeeds/RunMultiCellSeeds shard replications over a
// worker pool), and RunMetropolis folds every decision into one FNV-1a
// digest that is identical across repeats, and — for cell-local
// controllers (cac.CellLocal) — across decision paths and shard counts,
// because waves chunk only at MaxBatch boundaries. The inline batch
// path runs no shard code, so it is the sequential oracle the sharded
// engine is pinned against. The determinism suites in parallel_test.go,
// dispatch_test.go, sharded_test.go, ghost_test.go, rebalance_test.go
// and metropolis_test.go pin these contracts.
//
// # Entry points
//
// Figure7..Figure10 and AllFigures regenerate the paper artifacts under
// a FigureConfig (load points, seeds, workers, compiled fast path);
// AllAblations runs the sensitivity studies; RunSingleCell/RunMultiCell
// execute one scenario; RunBatchAdmission sweeps a request batch
// against a loaded network snapshot; RunMetropolis runs the closed
// loop — waves of arrivals, held calls, releases, barrier ticks and
// neighbour handoffs — over a diurnal day. The contestant catalogue
// (Contestant.Factory over ContestantNames, in contestants.go) turns a
// controller name into a controller for both binaries, the figures and
// the ablations; the same file holds FACSFactory, SCCFactory and the
// recompute oracle's SCCRecomputeFactory.
//
// The event-driven simulators and the metropolis driver share one
// decide-commit-notify step, serve.Core: RunSingleCell and RunMultiCell
// admit one request at a time through a Core in Commit mode and route
// releases (Core.Depart), ticks and post-handoff state updates through
// it, the same calls the served and sharded paths make.
//
// # Metropolis workload generation
//
// The metropolis driver draws each arrival's cell, class, estimate and
// hold, and each handoff's target and estimate, from two counted RNG
// streams. A cell draw reads a guide table that ensureCellCum rebuilds
// with the wave's cumulative weights, then walks forward to the binary
// search's index. A handoff reads its station's neighbour table (targets
// in Hex.Neighbors order and their proximity gradients), built once per
// run. A position takes its bearing from one math.Sincos. None of this
// changes a bit or a draw: TestMetropolisDriverStreamPin freezes the
// emitted request stream and both draw counts, and the two oracle tests
// beside it check the tables against the lookups they replace.
//
// Arrivals are drawn on a producer goroutine that runs ahead of the
// wave loop. runWave starts it at its first call, after any restore.
// From then on it alone touches the call stream (callRNG, callSrc) and
// the cell-choice tables. It fills a fixed ring of metroRingChunks
// MaxBatch-sized chunks (requests, holds, cells and the call stream's
// draw count after each chunk), chunked and numbered exactly as the
// loop consumes them, and runs on into the next wave while the loop
// does releases, ticks and handoffs. The loop keeps everything that
// depends on outcomes: the handoff stream, decisions, hashing and the
// ledger. A snapshot records the call stream's draw count at the end of
// the last consumed wave, so the format and every restore are
// unchanged. finish and close stop and join the producer; RunMetropolis
// closes on every return.
package experiments
