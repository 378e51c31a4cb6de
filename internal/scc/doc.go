// Package scc implements the Shadow Cluster Concept baseline (Levine,
// Akyildiz, Naghshineh, IEEE/ACM ToN 1997) as summarised in the paper's
// Section 2: every active mobile projects a probabilistic "shadow" of
// future bandwidth demand over the cells along its trajectory; base
// stations aggregate these shadows into per-interval expected demand
// and admit a new call only if, over the whole projection horizon,
// demand stays below a survivability threshold of capacity in every
// cell the new call's own tentative shadow cluster touches. A tracked
// call reserves in full: its whole bandwidth in every cell its shadow
// reaches with InclusionProb, nothing elsewhere — the conservative
// "deny access to protect active mobiles" form the paper's Fig. 10
// compares against.
//
// Differences from the original paper are deliberate simplifications
// and are documented in DESIGN.md: probabilities come from a
// closed-form Gaussian cone around the dead-reckoned trajectory instead
// of per-operator measured histories, and a mobile's kinematic state is
// the one observed at admission (refreshable via UpdateState on
// handoff).
//
// # Two implementations, one contract
//
// Controller is the original recompute-on-query form, kept as the
// reference oracle. Ledger is the incrementally maintained demand
// ledger — a dense [cell][interval] matrix of projected demand in whole
// BU plus cached per-call footprints, updated in O(footprint) on
// admit/release/handoff — whose decisions are byte-identical at
// O(horizon x cluster-cells) per decision: its integer sums equal the
// oracle's float sums of the same whole-BU terms, and an integer
// exceeds the oracle's float limit exactly when it exceeds that
// limit's floor, which the ledger compares against. An accepted
// decision stashes the request's footprint, and the OnAdmit that
// commits it adopts the stash instead of deriving the shadows again. A
// cluster depends only on which stations reach MinProb and
// InclusionProb; a hex-ring walk from the projected point visits the
// nearby stations only, weighs them relative to the nearest through a
// table exp with a proven error, and certifies those classes by
// probability intervals, calling the reference shadow when an interval
// straddles a threshold. A decision projects each interval once and
// every reader of that interval shares the projection. DESIGN.md
// records the ledger invariants, the whole-BU argument and the class
// proof; ledger_test.go holds the golden-equivalence suite and
// ledger_shadow_test.go pins the clusters to the oracle's.
//
// # Sharding
//
// Neither implementation declares cac.CellLocal: an SCC decision reads
// the demand projected by every tracked call, which is cross-cell
// state by design. Under the sharded engine (internal/shard) the
// shard-safe construction is one fresh Ledger per shard, each called
// only under its shard's lock, and the Ledger additionally implements
// cac.DemandExchanger: at every engine tick barrier each shard exports
// the change of its own demand matrix since the previous barrier
// (ExportDemand) and ingests every sibling's delta into a separate
// ghost matrix (ApplyGhost) that Decide sums into its aggregate. Global
// demand visibility — the survivability test the Shadow Cluster papers
// define over ALL active mobiles — is therefore restored at tick
// granularity: after a barrier, every shard's (local + ghost) surface
// equals the union of all shards' tracked demand.
//
// What remains is intra-epoch divergence: between two barriers a
// shard cannot see admissions performed on OTHER shards within the same
// epoch, so decisions in waves not immediately preceded by a barrier
// can differ from a sequential single-ledger run. With tick-aligned
// waves (every wave followed by a barrier tick, waves no larger than
// one chunk) nothing differs: sharded decisions are byte-identical to
// the inline single-ledger run for every shard count (pinned at
// 1/2/4/8 in internal/experiments/ghost_test.go). Otherwise the shard
// count changes decisions, and no bound on the change is claimed or
// tested. TestShardedSCCShardCountPin in internal/experiments measures
// it on a one-day 127-cell district run with a tick every 4 waves:
// 10,131 accepted calls at 1 shard, 9,885 at 2 and 9,348 at 4. Exchanged
// rows are whole BU, so a receiver's ghost equals the senders' matrices
// exactly (see ExportDemand and DESIGN.md).
//
// The recompute Controller does not exchange; it remains the
// single-instance oracle.
//
// # Migration and interest scoping
//
// The Ledger also rides the sharded engine's elastic-rebalancing seam.
// MigrateOut extracts every track homed on a cell (ID-ascending, each
// row carrying the admission-time state needed to rebuild it) while
// retracting its footprint from the demand matrix; MigrateIn ingests
// the rows on the destination shard, recomputing footprints under the
// identical config so the per-entry split sums to the original matrix
// exactly (migrate_test.go pins conservation). ResetExchange clears
// the ghost and exported matrices after an ownership epoch — delta
// telescoping breaks when cells move — so the next ExportDemand
// carries the absolute matrix and receivers reconstruct the global
// view from zero; generation counters keep rising across the reset.
//
// InterestRadiusCells bounds how far (in hex rings) any
// contract-compliant track's footprint can reach from its home cell:
// worst-case drift plus cluster spread at Config.MaxSpeedKmh over the
// projection horizon. The sharded engine dilates each shard's owned
// cells by this radius into interest sets and fans demand rows only to
// interested shards; -1 (no speed bound) keeps the all-to-all
// fan-out. Soundness — every footprint cell within the radius — is
// pinned in migrate_test.go.
//
// # Entry points
//
// New builds the oracle, NewLedger the fast path, both from the same
// Config (Network, thresholds, horizon). The oracle implements
// cac.Controller, cac.Observer and cac.StateUpdater; the Ledger
// additionally implements cac.BatchController, cac.Ticker (a no-op),
// cac.DemandExchanger, cac.CellMigrator, cac.InterestScoped and
// cac.ExchangeResetter, and exposes its counters (including migration
// totals) via Snapshot (LedgerStats) for Do-op observability behind
// serving loops.
package scc
