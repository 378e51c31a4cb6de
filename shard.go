package facs

import (
	icac "facs/internal/cac"
	iserve "facs/internal/serve"
	ishard "facs/internal/shard"
)

// ShardedEngine is the horizontally sharded admission engine: the
// network's cells are partitioned across N shards by a deterministic
// router, each shard holds its own controller behind its own lock and
// runs its work on the calling goroutine, waves chunk in global
// request order with cross-shard barriers, and handoffs run a
// serialized two-phase protocol (release on the source shard, admit on
// the target shard). For cell-local controllers
// every outcome is byte-identical for every shard count; see
// internal/shard for the full contract.
type ShardedEngine = ishard.Engine

// ShardedEngineConfig parameterises a ShardedEngine.
type ShardedEngineConfig = ishard.Config

// ShardView is the slice of the network one shard owns, handed to the
// per-shard controller factory.
type ShardView = ishard.View

// ShardedStats aggregates per-shard counter snapshots (summed
// counters, merged latency percentiles) with the engine's handoff
// counters.
type ShardedStats = ishard.Stats

// ServeResponse is the outcome of one admission request decided by a
// ShardedEngine — through SubmitAsync, SubmitWaveTo or a handoff —
// including its service-side latency and batch size.
type ServeResponse = iserve.Response

// ShardHandoff describes one call transfer between cells;
// ShardHandoffResult is its outcome (the call survives only when the
// target committed).
type (
	ShardHandoff       = ishard.Handoff
	ShardHandoffResult = ishard.HandoffResult
)

// NewShardedEngine partitions the network, builds one controller per
// shard and starts the engine's one intake goroutine, which coalesces
// SubmitAsync singles; waves, releases, handoffs and ticks run directly
// on their caller.
func NewShardedEngine(cfg ShardedEngineConfig) (*ShardedEngine, error) { return ishard.New(cfg) }

// SingleShardView returns the view a 1-shard engine hands its
// controller factory: the whole network.
var SingleShardView = ishard.SingleView

// DemandExchangingController marks controllers with cross-cell
// projected demand (the SCC ledger) whose per-shard instances exchange
// demand deltas at the engine's tick barriers, restoring the global
// demand visibility sharding would otherwise partition. When every
// shard controller is a distinct exchanger instance the engine runs
// the exchange automatically; with tick-aligned waves, sharded SCC
// decisions are then byte-identical to the inline single-ledger run
// for every shard count.
type DemandExchangingController = icac.DemandExchanger

// DemandDelta is one controller's projected-demand change since its
// previous export — the ghost-exchange payload; DemandRow is one of its
// (cell, interval) entries.
type (
	DemandDelta = icac.DemandDelta
	DemandRow   = icac.DemandRow
)

// ShardPartition selects the deterministic initial station-to-shard
// assignment: round-robin (the balanced historical default) or
// contiguous blocks (spatially coherent bands, the layout that makes
// interest-scoped ghost fan-out sparse).
type ShardPartition = ishard.Partition

// Partition strategies for ShardedEngineConfig.Partition.
const (
	PartitionRoundRobin = ishard.PartitionRoundRobin
	PartitionBlocks     = ishard.PartitionBlocks
)

// ShardPlannerConfig bounds the elastic rebalancing planner (moves per
// epoch, imbalance tolerance).
type ShardPlannerConfig = ishard.PlannerConfig
