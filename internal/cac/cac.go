package cac

import (
	"fmt"
	"io"

	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
)

// Decision is an admission outcome.
type Decision int

// Admission outcomes.
const (
	// Accept grants the requested bandwidth.
	Accept Decision = iota + 1
	// Reject denies the request.
	Reject
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Accepted reports whether the decision admits the call.
func (d Decision) Accepted() bool { return d == Accept }

// Request is one admission question posed to a controller.
type Request struct {
	// Call is the proposed call (ID, class and bandwidth).
	Call cell.Call
	// Station is the base station that would carry the call.
	Station *cell.BaseStation
	// Obs is the user's estimated kinematics relative to Station
	// (speed, angle, distance) as produced by the GPS substrate.
	Obs gps.Observation
	// Est is the absolute kinematic estimate (position, heading, speed)
	// behind Obs. Mobility-predictive controllers such as SCC consume
	// this; FACS consumes only the relative Obs.
	Est gps.Estimate
	// Handoff marks requests arriving via handoff rather than new calls.
	Handoff bool
	// Now is the simulation time in seconds.
	Now float64
}

// Validate checks structural preconditions shared by all controllers.
func (r Request) Validate() error {
	if r.Station == nil {
		return fmt.Errorf("cac: request for call %d has no station", r.Call.ID) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if r.Call.BU <= 0 {
		return fmt.Errorf("cac: request for call %d has non-positive bandwidth %d", r.Call.ID, r.Call.BU) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	if !r.Call.Class.Valid() {
		return fmt.Errorf("cac: request for call %d has invalid class %v", r.Call.ID, r.Call.Class) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	return nil
}

// Controller renders admission decisions.
type Controller interface {
	// Name identifies the scheme, e.g. "facs" or "scc".
	Name() string
	// Decide returns the admission outcome for one request. Controllers
	// must not mutate the station; the caller allocates on Accept.
	Decide(req Request) (Decision, error)
}

// CellLocal is implemented by controllers whose decisions are a pure
// function of the request and the mutable state of the request's own
// station (everything else they read — parameters, surfaces, network
// geometry — is immutable after construction), and that must also be
// safe for concurrent use. Cell-locality is the sharding seam: a
// sharded engine that partitions stations across shards changes
// neither the inputs nor the order of any station's decisions, so
// outcomes of a CellLocal controller are byte-identical for every shard
// count. Controllers tracking cross-cell state (e.g. SCC's shadow
// clusters, which project demand into neighbouring cells) must not
// declare cell-locality: sharding partitions their demand visibility.
// Such controllers should implement DemandExchanger instead, which lets
// the sharded engine restore global visibility at tick barriers.
type CellLocal interface {
	Controller
	// CellLocal is a marker; implementations assert the contract above.
	CellLocal()
}

// DemandRow is one (cell, projection-interval) slice of projected
// bandwidth demand, in whole BU. A positive Amount adds demand, a
// negative one retracts demand a previous row added (e.g. after a
// release).
type DemandRow struct {
	// Cell identifies the deployment cell the demand is projected into.
	Cell geo.Hex
	// K is the projection interval the demand applies to (0 = now).
	K int
	// Amount is the demand change in bandwidth units since the exporter's
	// previous export.
	Amount int
}

// DemandDelta is one controller's projected-demand change since its
// previous export: the set of (cell, interval) rows whose aggregate
// moved, plus a strictly increasing generation counter so receivers can
// discard replays and out-of-order deliveries.
type DemandDelta struct {
	// Gen is the exporter's generation: incremented on every export.
	Gen uint64
	// Rows holds the changed (cell, interval) aggregates in a
	// deterministic (cell, interval) order. Rows may alias a buffer the
	// exporter reuses: it is valid until the exporter's next
	// ExportDemand call, so receivers must apply (or copy) a delta
	// before the next exchange round.
	Rows []DemandRow
}

// DemandExchanger is implemented by controllers that track cross-cell
// projected demand (the SCC family) and can exchange it with sibling
// instances — the seam that lets a sharded engine restore global demand
// visibility at tick barriers. ExportDemand returns the instance's own
// demand change since its previous export; ApplyGhost ingests another
// instance's delta into a separate ghost aggregate that decisions read
// alongside local demand. Both methods follow the Controller threading
// contract: the caller serializes them with decisions (the sharded
// engine runs the whole exchange inside the Tick barrier, under each
// instance's own shard lock).
//
// A DemandExchanger is the complement of CellLocal: cell-local
// controllers have no cross-cell state to exchange, exchangers restore
// the global view that sharding would otherwise partition. No
// controller should declare both.
type DemandExchanger interface {
	Controller
	// ExportDemand snapshots the demand change since the previous export
	// and advances the generation counter.
	ExportDemand() DemandDelta
	// ApplyGhost ingests a sibling instance's delta. shardID identifies
	// the source; deltas with a generation not beyond the last applied
	// one from that source are ignored.
	ApplyGhost(shardID int, delta DemandDelta)
}

// MigratedCall is one tracked call's projection source as it moves
// between sibling controller instances during an elastic-sharding cell
// migration: everything the receiving instance needs to recreate the
// call's cross-cell state bit-identically. Speed travels in m/s (the
// unit trackers store internally) so a migrated track re-derives the
// exact same footprint the source instance held — no unit round-trip.
type MigratedCall struct {
	// ID identifies the call.
	ID int
	// BU is the call's occupied bandwidth.
	BU int
	// Pos / HeadingDeg / SpeedMps are the last observed kinematics the
	// projection is anchored to.
	Pos        geo.Point
	HeadingDeg float64
	SpeedMps   float64
	// Home is the cell the call is carried in (the migrating cell).
	Home geo.Hex
}

// CellMigrator is implemented by stateful controllers that can hand a
// cell's per-call state to a sibling instance — the seam the sharded
// engine's elastic rebalancer uses to move scc.Ledger rows between
// shards inside a tick barrier. MigrateOut removes every tracked call
// homed in cell h (in ascending call-ID order, appended to dst) and
// retracts its projected demand; MigrateIn recreates the tracks and
// re-applies their demand. Both follow the Controller threading
// contract: the engine serializes them with decisions via the Do-op
// seam, source first, then target, so at every instant each call is
// tracked by exactly one instance. A controller that is CellLocal has
// no cross-cell state and needs no migrator: re-routing its cell is
// already outcome-preserving.
type CellMigrator interface {
	Controller
	// MigrateOut extracts and removes every tracked call homed in h,
	// appending to dst in ascending call-ID order.
	MigrateOut(h geo.Hex, dst []MigratedCall) []MigratedCall
	// MigrateIn recreates the given tracks and applies their demand.
	MigrateIn(rows []MigratedCall)
}

// InterestScoped is implemented by demand exchangers that can bound how
// far (in hex rings) their decisions read demand from a request's home
// cell — the seam behind interest-scoped ghost fan-out. A shard engine
// whose exchangers all declare a non-negative radius routes each
// exported demand row only to shards owning a cell within that radius
// of the row's cell, instead of all-to-all; decisions are unchanged
// because rows outside the radius are provably never read by any
// decision the receiver renders. A negative radius declares "unbounded"
// (the exchanger cannot bound its read set) and keeps the all-to-all
// fan-out.
type InterestScoped interface {
	DemandExchanger
	// InterestRadiusCells returns the maximum hex distance from a cell
	// this instance owns to any cell one of its decisions may read, or
	// a negative value when no bound can be declared.
	InterestRadiusCells() int
}

// ExchangeResetter is implemented by demand exchangers whose exchange
// state can be re-seeded: ResetExchange clears the accumulated ghost
// demand and arranges for the next ExportDemand to carry the full
// absolute demand matrix instead of a delta. The sharded engine calls
// it on every exchanger after a rebalance epoch — ownership and
// interest sets just changed, so differential deltas no longer
// telescope against what each receiver has accumulated — and then runs
// a full exchange round before any further decision.
type ExchangeResetter interface {
	// ResetExchange clears ghost demand and forces the next export to be
	// absolute. Generation counters keep rising monotonically.
	ResetExchange()
}

// Snapshotter is implemented by components whose state can be captured
// into (and restored from) the versioned snapshot envelope of
// internal/snap — the seam behind durable serving. Stateful
// controllers (the SCC demand ledger), stations and the sharded engine
// implement it; stateless controllers implement it with an empty
// payload whose envelope still validates the configuration, so a
// restore into a differently-configured deployment fails stale instead
// of silently diverging.
//
// Consistency is the caller's job: SnapshotTo and RestoreFrom must run
// with no decision in flight — inside a shard.Engine.Do call (which
// holds the shard's lock), inside the shard engine's tick barrier,
// or before any traffic starts.
// Restore contracts are exact: a component restored from a snapshot
// continues byte-identically to the instance that was captured
// (replaying the same inputs yields the same decisions, exports and
// counters), which is what makes warm failover indistinguishable from
// an uninterrupted run.
type Snapshotter interface {
	// SnapshotTo writes the component's state as one self-describing
	// snapshot blob.
	SnapshotTo(w io.Writer) error
	// RestoreFrom replaces the component's state from a blob written by
	// SnapshotTo on an identically-configured instance. Decode failures
	// wrap snap.ErrSnapshotStale or snap.ErrSnapshotCorrupt and leave
	// the component unchanged or empty-but-valid, never half-restored
	// in a way that could corrupt later decisions.
	RestoreFrom(r io.Reader) error
}

// Observer is implemented by controllers that maintain per-call state
// (e.g. SCC's shadow clusters). The simulation invokes these callbacks
// after the corresponding ledger operation succeeded.
type Observer interface {
	// OnAdmit notifies that req was accepted and allocated.
	OnAdmit(req Request)
	// OnRelease notifies that a call ended or left the station.
	OnRelease(callID int, station *cell.BaseStation, now float64)
}

// Ticker is implemented by controllers with time-driven state (e.g. SCC's
// demand projections). The simulation calls OnTick periodically.
type Ticker interface {
	OnTick(now float64)
}

// StateUpdater is implemented by controllers that refresh per-call
// kinematics while a call is active (e.g. SCC after a handoff delivers a
// new position estimate).
type StateUpdater interface {
	// OnStateUpdate reports the latest kinematic estimate for a carried
	// call and the station now carrying it.
	OnStateUpdate(callID int, est gps.Estimate, station *cell.BaseStation)
}
