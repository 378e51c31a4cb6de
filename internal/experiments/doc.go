// Package experiments contains the reproduction and load harness: one
// driver per figure of the paper's evaluation section (Figs. 7-10), the
// ablation studies enumerated in ablations.go, the one-shot batch
// admission sweep (RunBatchAdmission), and the one closed-loop driver:
// the metropolis-scale diurnal workload (RunMetropolis) — a hex
// deployment of any size with rush-hour hotspot mobility, runnable
// through the single, inline batch and internal/shard decision paths.
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
// neighbour handoffs — over a diurnal day. The controller
// factories (FACSFactory, CompiledFACSFactory, SCCFactory,
// SCCRecomputeFactory) build the multi-cell contestants.
package experiments
