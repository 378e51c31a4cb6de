// Package facs is a from-scratch Go reproduction of
//
//	L. Barolli, F. Xhafa, A. Durresi, A. Koyama,
//	"A Fuzzy-based Call Admission Control System for Wireless Cellular
//	Networks", 27th International Conference on Distributed Computing
//	Systems Workshops (ICDCSW'07), 2007.
//
// The package exposes the paper's Fuzzy Admission Control System (FACS):
// a two-stage Mamdani fuzzy controller that predicts how useful it is to
// grant a mobile user bandwidth (FLC1: speed, angle, distance -> correction
// value) and renders a soft admission decision (FLC2: correction value,
// request size, counter state -> accept/reject), together with the Shadow
// Cluster Concept (SCC) baseline it is evaluated against, the classical
// admission schemes surveyed in the paper's introduction, and the full
// simulation and experiment harness that regenerates every figure of the
// paper's evaluation section.
//
// # Quick start
//
//	ctrl := facs.MustSystem()
//	obs := facs.Observation{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2}
//	ev, err := ctrl.Evaluate(obs, 5 /* BU */, 12 /* occupied BU */, false)
//	if err != nil { ... }
//	if ev.Accepted { ... }
//
// # Compiled fast path
//
// For hot admission loops the two Mamdani inferences can be replaced by
// a compiled lookup table that answers accept/reject only:
//
//	cc, err := facs.DefaultCompiledSystem() // compiled once, shared
//	d, err := cc.Decide(req)                // or facs.DecideAll(cc, reqs)
//
// NewCompiledSystem samples FLC2 over a dense grid at construction
// time (tens of milliseconds, which BenchmarkCompiledSurfaceBuild
// times) and encloses FLC1 grid cell by grid cell the first time a
// decision touches one. An admission decision (Decide, DecideBatchInto)
// is compare-only: a per-(handoff, R, Cs) table of Cv intervals on
// which FLC2 is certain to accept or to reject settles any Cv range
// inside one interval. Each request asks it about a proven range of
// FLC1 over its grid cell, then, where that range straddles a verdict,
// over smaller sub-cells; the rest (about 1% on the city-facs
// benchmark) are re-run on the exact engines. The FLC1 ranges are
// certified, so FLC1 cannot flip a decision; the accept table rests
// on FLC2 error bounds that are probed, not proven (ARCHITECTURE.md),
// and the golden-equivalence suite in internal/facs finds no flip.
// Evaluate on the compiled system is the exact System.Evaluate: use
// the exact System for crisp values and grades, and the compiled path
// when decision throughput matters.
//
// # Batch admission and the SCC demand ledger
//
// Controllers that can amortise work across many admission questions
// carry a native batch path; DecideAll routes a request slice through
// it when one exists and degrades to sequential Decide calls
// otherwise, with identical outcomes either way:
//
//	decisions, err := facs.DecideAll(ctrl, reqs)
//
// The FACS System, the compiled fast path, the guard-channel and
// threshold baselines and the SCC ledger are all batch-capable, and
// RunBatchAdmission sweeps a whole request batch against a loaded
// network snapshot in one pass (facs-sim -batch).
//
// The Shadow Cluster Concept baseline likewise comes in two
// interchangeable forms: NewSCC builds the original recompute-on-query
// controller (the reference oracle), NewSCCLedger the incrementally
// maintained demand ledger — a dense [cell][interval] matrix of
// projected demand plus cached per-call footprints, updated in
// O(footprint) on admit/release/handoff, making each decision
// O(horizon x cluster-cells) independent of the number of active calls
// (three-plus orders of magnitude at 1,000 tracked calls; see
// BenchmarkSCCDecide). Decisions are byte-identical to the oracle's:
// SCC reserves a call's whole bandwidth or nothing in each cell, so the
// ledger holds exact whole-BU sums and compares them with each cell's
// integer limit, and the golden-equivalence suites in internal/scc and
// internal/experiments pin the contract.
// internal/scc/DESIGN.md records the invariants.
//
// # Streaming admission
//
// For online serving, NewShardedEngine with Shards: 1 puts any
// controller behind one lock and a concurrent micro-batching intake:
// submitters stream single requests from any number of goroutines
// through SubmitAsync, the intake coalesces them into batches (bounded
// by MaxBatch/MaxDelay), and ticks and releases are serialized with the
// decisions so stateful controllers keep their invariants:
//
//	eng, err := facs.NewShardedEngine(facs.ShardedEngineConfig{
//		Network: netw, Shards: 1, Commit: true,
//		NewController: func(facs.ShardView) (facs.Controller, error) { return ctrl, nil },
//	})
//	resp := <-eng.SubmitAsync(req)          // one decision, with latency
//	err = eng.SubmitWaveTo(reqs, responses) // a deterministic wave into a reused buffer
//	stats := eng.Stats()                    // throughput / latency / accept rate
//
// Micro-batching cannot change outcomes: without Commit a streamed run
// is byte-identical to DecideAll over the same requests, and waves
// chunk at deterministic batch boundaries only. The cmd/facs-serve
// binary serves newline-delimited JSON over stdin or TCP.
//
// # Sharded admission engine
//
// One controller behind one lock is a ceiling on multi-cell
// throughput. The sharded engine partitions the network's cells across N shards, each a
// controller behind its own lock that runs on the caller, with a
// deterministic router and a serialized cross-shard handoff protocol
// (release on the source shard, then admit with handoff priority on
// the target shard):
//
//	eng, err := facs.NewShardedEngine(facs.ShardedEngineConfig{
//		Network: netw, Shards: 8, Commit: true,
//		NewController: func(facs.ShardView) (facs.Controller, error) { return ctrl, nil },
//	})
//	responses := make([]facs.ServeResponse, len(reqs))
//	err = eng.SubmitWaveTo(reqs, responses) // chunked in global order, barriers between chunks
//	res := eng.HandoffCall(facs.ShardHandoff{CallID: 7, From: src, To: dst, Est: est, Now: now})
//
// For cell-local controllers (FACS exact and compiled, the classical
// baselines; ShardedStats.CellLocal reports the regime) every outcome
// is byte-identical for every shard count — pinned against the inline
// batch engine — while throughput scales with cores. RunMetropolis with MetroSharded
// drives the closed loop through the engine (facs-sim -metropolis
// -metro-mode sharded -shards N), and facs-serve -shards N serves it
// over NDJSON including the handoff wire op. ARCHITECTURE.md's "The sharded engine" section
// records the router, the protocol and the determinism argument.
//
// # Reproduction
//
//	fig, err := facs.Figure10(facs.FigureConfig{})
//	fmt.Print(facs.Chart(fig.Series, facs.ChartOptions{Title: fig.Title}))
//
// The cmd/facs-repro binary regenerates every table and figure;
// ARCHITECTURE.md maps the layers and oracle contracts, and
// cmd/README.md documents every binary's flags. Figure replications
// are independent simulations and run on a worker pool
// (FigureConfig.Workers, default one per CPU); results are identical
// for every worker count because each replication derives all of its
// randomness from its own seed. Figures and ablations run the exact
// FACS: at their sizes the compile costs more than it saves.
package facs
