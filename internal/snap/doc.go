// Package snap is the repository's one persistence format: a
// versioned, checksummed binary envelope for controller and station
// state and for compiled surfaces, which are the "fuzzy-surface" kind
// (fuzzy.EncodeSurface) nested in the surface cache's "facs-surfaces"
// entries.
//
// # Envelope
//
// Every component snapshot is a self-describing blob:
//
//	magic "FSNP" | version u32 | kind | configHash u64
//	component payload
//	checksum u64 (FNV-64a of every preceding byte)
//
// The kind string names the component ("scc-ledger", "base-station",
// "shard-engine", ...) and the configHash fingerprints everything the
// payload's meaning depends on — network shape, capacities, horizon,
// shard count. Decoding validates checksum and magic first
// (ErrSnapshotCorrupt), then version, kind and config hash
// (ErrSnapshotStale). Every error the decode path can produce wraps
// one of those two sentinels, so a restore-or-cold-start caller needs
// exactly one errors.Is test per sentinel; FuzzDecodeSnapshot pins
// that contract (no panic, no foreign error) against arbitrary bytes.
//
// Composite components (the sharded engine, the metropolis driver)
// embed their children with Encoder.Blob: each nested blob is a
// complete envelope of its own, so a composite restore revalidates
// every level independently.
//
// # Consistency and determinism
//
// The format carries state; consistency comes from where captures run.
// Stateful controllers snapshot inside shard.Engine.Do calls (under
// the shard's lock) and the shard.Engine tick barrier, so a snapshot is a consistent cut of
// controllers, stations and epoch ownership with no wave in flight.
// Components restore their state verbatim — float64 bit patterns, RNG
// draw positions, dirty-row bookkeeping — so restore-then-replay is
// byte-identical to an uninterrupted run (the crash-recovery suite in
// internal/experiments pins DecisionHash equality across engines and
// shard counts).
//
// WriteFileAtomic writes snapshot files via a temp file, fsync and
// rename, so an on-disk snapshot is always either the complete old
// state or the complete new state — a crash mid-write never leaves a
// torn file behind.
package snap
