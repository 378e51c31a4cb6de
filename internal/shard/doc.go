// Package shard is the horizontally sharded admission engine: the
// scale-out layer between the admission controllers and the network
// front end.
//
// A single serve.Service serializes every decision behind one lock —
// correct, but a ceiling on multi-cell throughput. The
// engine removes the ceiling along the seam the CAC literature
// identifies: admission state is naturally cell-local, with explicit
// cross-cell transfer only at handoff. Cells are partitioned across N
// shards by a deterministic router (PartitionRoundRobin spreads
// station i of the network's (Q, R) order to shard i mod N;
// PartitionBlocks assigns contiguous runs), each shard holds its own
// controller behind its own lock, and every station's traffic —
// decisions and releases — is serialized by exactly one shard. The cell-to-shard map is an immutable epoch value swapped
// whole at rebalances, so routing never observes a half-applied
// layout.
//
// # Execution
//
// A shard is state: one serve.Core — its controller, decision scratch
// and counters — behind one mutex. Every operation runs on the
// goroutine that calls it, under the locks of the shards it touches
// (taken in shard order whenever several are held), with one
// exception: SubmitWaveTo routes each chunk, decides the first owning
// shard's slice on the caller and posts every other owning shard's
// slice for the helper — the cross-shard parallelism. Given a second
// CPU and shard, New starts one helper goroutine, which serves every
// shard beyond shard 0 (a chunk that routes to shard 0 at all starts
// there); Close stops and joins it. A slice travels through a
// preallocated slot, so a chunk starts no goroutine and allocates
// nothing. Posting a slice wakes the helper if it is parked. The
// caller takes back, by a CAS on the slot, any slice the helper has
// not claimed once its own is done, and waits only for a slice the
// helper is running. The helper yield-polls while a multi-chunk
// SubmitWaveTo runs and while the step a driver handed it through
// Background (the metropolis driver's arrival drawing) keeps it busy;
// otherwise it parks (Stats.FanOuts counts where each slice ran; with
// GOMAXPROCS 1 there is no helper and the caller runs every slice).
// Every slice runs under its shard's lock against the chunk-start
// state, whichever goroutine runs it. Release, Do and Tick lock one
// shard at a time;
// rebalancing and snapshots hold every lock for the epoch or the cut.
// Each chunk slice goes through the shard's Core.Decide, the
// decide-commit-observe step a serve.Service uses, and is counted in
// serve.Stats terms; releases, ticks, Do calls and both handoff phases
// are Core methods too. Only SubmitAsync singles
// travel a queue: one intake goroutine per engine (serve.Intake)
// coalesces them by MaxBatch and MaxDelay, as for a Service, and
// decides each micro-batch as one chunk. Every other operation first drains that intake, so it is
// ordered after the singles already enqueued; with nothing pending the
// drain is one counter load.
//
// # Determinism
//
// Three mechanisms make outcomes reproducible for every shard count:
//
//   - Ownership: one shard owns each station, so a station's requests
//     are decided in submission order no matter how many shards exist.
//   - Global chunking: SubmitWaveTo splits waves at MaxBatch boundaries
//     in global request order BEFORE routing and barriers between
//     chunks, so every request is decided against the same chunk-start
//     station state regardless of how the chunk scattered across
//     shards.
//   - Serialized handoffs: one mutex runs handoffs one at a time, each
//     to completion on its caller, releasing on the source shard before
//     admitting on the target shard.
//
// For controllers declaring cac.CellLocal — FACS exact and compiled,
// complete sharing, guard channel, multi-priority threshold — this
// makes every per-request outcome byte-identical to the 1-shard
// engine and to the metropolis driver's inline batch engine (the
// pinned oracle in internal/experiments). Stats.CellLocal reports
// whether a configuration is in that regime.
//
// # Ghost-demand exchange
//
// Controllers with cross-cell state — the SCC demand ledger — are not
// cell-local: partitioning them would confine each instance to the
// demand of calls homed on its own cells. When every shard controller
// is a distinct cac.DemandExchanger instance, the engine therefore
// runs a ghost-demand exchange inside the Tick barrier: once every
// shard has applied the tick, each shard's demand delta is collected
// (under that shard's lock) and the union fanned back out to
// every other shard, all before Tick returns. Exchange cadence equals
// tick cadence — deterministic and race-free by construction. For
// tick-aligned waves the ghost suite pins sharded SCC decisions
// byte-identical at shard counts 1/2/4/8 to the inline single-ledger
// run (internal/experiments/ghost_test.go). Between barriers a shard
// sees only its own admissions, so free-running SCC decides
// differently per shard count, with no claimed bound:
// TestShardedSCCShardCountPin (internal/experiments) pins a district
// day's 10,131 / 9,885 / 9,348 accepted calls at 1 / 2 / 4 shards. Stats counts exchange rounds
// and fanned-out demand rows.
//
// # Elastic rebalancing
//
// A static partition wastes capacity under skew. With
// Config.RebalanceEveryTicks > 0 the engine counts per-cell routed
// work, and every Nth Tick barrier plans a new ownership epoch with
// PlanRebalance — a pure greedy bin-packing function (identical load
// snapshots give identical plans on every replay) — then migrates the
// planned cells inside the barrier: the source shard detaches the
// cell's call slots and, for cac.CellMigrator controllers, its
// per-cell controller rows; the destination attaches both; the epoch
// pointer swaps; and every exchanger is reset (cac.ExchangeResetter)
// so the next export republishes the absolute demand matrix under the
// new layout. Construction refuses the cadence unless every controller
// is cac.CellLocal or a CellMigrator. Cell-local byte-identity at
// shard counts 1/2/4/8 survives mid-run epochs (the randomized soak in
// rebalance_test.go pins decisions, commits, handoffs and final
// occupancy), and tick-aligned SCC keeps the exchange identity because
// the post-epoch absolute re-export restores exact global visibility.
//
// When every exchanger declares a bounded interest radius
// (cac.InterestScoped, e.g. scc.Ledger with MaxSpeedKmh configured),
// the exchange fans each demand row only to shards whose dilated
// ownership — owned cells plus the radius — contains the row's cell.
// A dropped row is one the receiver could never read, so outcomes are
// unchanged while Stats.GhostRows falls below Stats.GhostRowsAllToAll
// on skewed workloads. A ledger built without the speed bound declares
// no radius, and the exchange stays all-to-all.
//
// # Entry points
//
// Each operation has one exported entry point. New starts the engine;
// SubmitWaveTo decides a wave into a caller-owned buffer and
// SubmitAsync a single (<-SubmitAsync(req) blocks for it); Tick is a
// cross-shard barrier (hosting the ghost exchange and the rebalance
// epochs); Release routes to the owner shard; HandoffCall runs the
// two-phase cross-shard handoff; Do runs a function on one shard's
// controller under its lock; Flush waits for queued singles;
// SnapshotTo and RestoreFrom save and restore the whole engine; Stats
// aggregates the per-shard counters as serve.Stats (including merged
// latency percentiles) with handoff, fan-out, exchange and rebalance
// counters, the ownership epoch and the CellLocal and InterestScoped
// regimes; Background, Shards and Close (which joins the intake and
// the helper) complete the set.
// experiments.RunMetropolis drives the closed loop; cmd/facs-serve and
// cmd/facs-sim wire the engine behind -shards / -partition /
// -rebalance-ticks.
package shard
