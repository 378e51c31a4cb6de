// Package cell models the radio resource substrate: base stations with
// a fixed bandwidth-unit capacity and an allocation ledger split into
// the paper's Real-Time and Non-Real-Time counters (RTC/NRTC), plus a
// hexagonal multi-cell network with neighbour topology and handoffs.
//
// # Role and invariants
//
// The paper's evaluation uses a base station with 40 bandwidth units
// (BU); text, voice and video calls consume 1, 5 and 10 BU. The
// allocation ledger maintains Used() == RTC() + NRTC() <= Capacity() at
// all times: Admit rejects (leaving the ledger unchanged) on overflow
// or duplicate call IDs, Release credits exactly what was debited. A
// BaseStation is not safe for concurrent use — the simulation kernel
// is single-threaded by design, and the streaming service serializes
// all mutation in one goroutine (internal/serve).
//
// Calls live in one flat table per station, open-addressed by call ID,
// so steady-state admit/release cycles are one probe each and
// allocation-free, and per-class occupancy (ClassBU) is an O(1)
// counter. Capacity bounds the live calls, and so the longest probe
// run, whatever IDs arrive (see pool_test.go for the map-ledger
// oracle, the fuzz target and the allocation gates).
//
// # Entry points
//
// NewBaseStation builds a standalone station; NewNetwork builds the
// hexagonal deployment (Rings, CellRadiusM, CapacityBU) with
// StationAt/Neighbors lookup and Handoff moving a carried call between
// cells.
package cell
