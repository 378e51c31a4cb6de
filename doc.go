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
// a compiled lookup table:
//
//	cc, err := facs.DefaultCompiledSystem() // compiled once, shared
//	ev, err := cc.Evaluate(obs, 5, 12, false)
//
// NewCompiledSystem samples both controllers over dense grids at
// construction time (a one-off cost, well under a second, that
// BenchmarkCompiledSurfaceBuild times) and
// answers queries by trilinear interpolation, roughly 8x faster than
// the exact engines at the paper's operating points (each exact
// inference is itself a tabulated, allocation-free centroid). The
// trade-off is explicit and guarded: the crisp Cv and A/R values carry
// a small interpolation tolerance (documented and enforced by the
// golden-equivalence test suite in internal/facs), while accept/reject
// outcomes and decision grades are always identical to the exact
// System. An admission decision (Decide, DecideBatchInto) is
// compare-only: a per-(handoff, R, Cs) table of Cv intervals on which
// FLC2 is certain to accept or to reject settles any Cv range inside
// one interval, and each request tries three steps in turn. The cell
// check asks about the range FLC1 can take anywhere in the request's
// FLC1 grid cell, a table read with no interpolation, and settles most
// requests; the point check interpolates Cv and its error bound and
// asks about that narrower range; a request whose point range is not
// inside one interval is re-run on the exact engines (about 1% of a
// uniformly random workload, and 2% on the city-facs benchmark, whose
// loaded cells sit near the threshold). The point range lies inside
// the cell range, so the cell check changes which step answers, never
// the answer or which requests reach the exact engines. Evaluate, which also
// reports the crisp values and the grade, guards the interpolated A/R
// value against the threshold and the grade boundaries instead (about
// 2% fallbacks on the same random workload). Use the exact System when
// the crisp values themselves must be reference-grade; use the compiled
// path when decision throughput matters.
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
// BenchmarkSCCDecide). Decisions are byte-identical to the oracle's: a
// guard band answers any aggregate landing within 1e-6 BU of the
// survivability threshold with the oracle's exact sum, taken from the
// cached footprints in the oracle's order (full reservation, whose
// whole-BU aggregates are exact, needs no band), and the
// golden-equivalence suites in internal/scc and internal/experiments
// pin the contract.
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
// # Surface persistence
//
// Compiling the default surfaces is CPU work that a long-lived service
// should pay once, not on every restart. The -surface-cache
// flag of facs-sim and facs-serve persists compiled surfaces as
// versioned, checksummed binary blobs validated by a config+grid hash;
// a warm start decodes them in milliseconds and logs whether the entry
// was a hit, stale or a miss. Stale or corrupt entries are recompiled
// and overwritten, never trusted.
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
// randomness from its own seed. FigureConfig.Compiled switches the
// FACS curves to the compiled fast path without changing any curve.
package facs
