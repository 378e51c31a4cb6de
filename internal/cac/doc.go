// Package cac defines the call-admission-control framework shared by
// the paper's FACS system, the SCC baseline and the classical schemes
// the paper's introduction surveys (Complete Sharing, Guard Channel and
// the Multi-Priority Threshold policy).
//
// # Role and invariants
//
// A Controller only renders decisions; the simulation (or caller)
// performs the actual bandwidth allocation on the base station, then
// notifies controllers that track state through the optional Observer
// interface. Two invariants follow:
//
//   - Decide never mutates a station. Admission state changes flow
//     exclusively through Observer/StateUpdater/Ticker callbacks after
//     the caller has allocated.
//   - DecideBatch(reqs)[i] must equal Decide(reqs[i]) against the same
//     station state: batching changes the cost of a decision, never its
//     outcome. Every request in one batch is therefore decided against
//     the same station snapshot.
//
// # Entry points
//
// Controller is the single-request interface; BatchController and its
// allocation-free refinement BatchIntoController mark controllers with
// a native amortised batch path. DecideAll is the dispatch every
// multi-request caller should use (the native Into path when available,
// sequential otherwise), and DecideOne routes event loops
// through the same dispatch without a per-decision allocation. The
// classical baselines (CompleteSharing, GuardChannel, ThresholdPolicy)
// live in baselines.go. The streaming front end over this framework is
// internal/serve.
//
// Two marker interfaces describe how a controller behaves under the
// sharded engine (internal/shard): CellLocal promises decisions that
// read only the request's own station, making sharded outcomes
// shard-count-invariant; DemandExchanger is its complement for
// controllers with cross-cell projected demand (the SCC family), whose
// instances exchange demand deltas at tick barriers to restore the
// global view sharding would otherwise partition.
package cac
