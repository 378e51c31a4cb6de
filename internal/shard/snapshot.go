package shard

import (
	"bytes"
	"io"
	"sync/atomic"

	"facs/internal/cac"
	"facs/internal/snap"
)

var _ cac.Snapshotter = (*Engine)(nil)

// snapshotHash fingerprints the engine's identity: shard count and the
// network's cell layout and capacities. Ownership, station and
// controller state all restore against it; the nested per-component
// envelopes re-validate their own configurations independently.
func (e *Engine) snapshotHash() uint64 {
	h := snap.NewHasher().
		Str("shard-engine").
		Int(len(e.shards)).
		Int(len(e.stations))
	for _, bs := range e.stations {
		h.Int(bs.Hex().Q).Int(bs.Hex().R).Int(bs.Capacity())
	}
	return h.Sum()
}

// SnapshotTo implements cac.Snapshotter: it captures a consistent cut
// of the whole engine — epoch ownership, tick and load accounting,
// engine counters, every station's call set and every shard's
// controller state (each a nested self-describing envelope), captured
// with every shard lock held.
//
// The caller must quiesce submissions for the duration (no SubmitWave/
// SubmitAsync/Handoff in flight), exactly as the closed-loop drivers
// do between waves; Flush then guarantees the cut is wave-aligned.
// Requests still undecided at a crash are lost by design — a client
// that never saw a response retries, which is ordinary crash
// semantics.
func (e *Engine) SnapshotTo(w io.Writer) error {
	if err := e.Flush(); err != nil {
		return err
	}
	e.lockAll()
	defer e.unlockAll()
	cur := e.own.Load()
	enc := snap.NewEncoder(w, "shard-engine", e.snapshotHash())

	enc.U64(cur.epoch)
	enc.U32(uint32(len(cur.owner)))
	for _, o := range cur.owner {
		enc.Int(int(o))
	}
	enc.I64(e.ticks.Load())
	enc.U32(uint32(len(e.cellLoad)))
	for i := range e.cellLoad {
		enc.I64(atomic.LoadInt64(&e.cellLoad[i]))
	}

	enc.I64(e.waves.Load())
	enc.I64(e.handoffCount.Load())
	enc.I64(e.crossShard.Load())
	enc.I64(e.drops.Load())
	enc.I64(e.handoffErrs.Load())
	enc.I64(e.exchanges.Load())
	enc.I64(e.ghostRows.Load())
	enc.I64(e.ghostRowsAll.Load())
	enc.I64(e.rebalances.Load())
	enc.I64(e.migrations.Load())
	enc.I64(e.migratedCalls.Load())

	var buf bytes.Buffer
	enc.U32(uint32(len(e.stations)))
	for _, bs := range e.stations {
		buf.Reset()
		if err := bs.SnapshotTo(&buf); err != nil {
			return err
		}
		enc.Blob(buf.Bytes())
	}

	enc.U32(uint32(len(e.shards)))
	for _, sh := range e.shards {
		sn, hasState := sh.ctrl.(cac.Snapshotter)
		enc.Bool(hasState)
		if !hasState {
			continue
		}
		buf.Reset()
		if err := sn.SnapshotTo(&buf); err != nil {
			return err
		}
		enc.Blob(buf.Bytes())
	}
	return enc.Close()
}

// RestoreFrom implements cac.Snapshotter: it installs a snapshot
// written by SnapshotTo on an identically-configured engine (same
// network, same shard count, same controller factory). The envelope is
// fully decoded and validated before any state changes; ownership is
// rebuilt deterministically from the restored owner array and epoch,
// then stations and per-shard controllers restore from their nested
// envelopes. The caller must quiesce submissions, as for SnapshotTo.
func (e *Engine) RestoreFrom(r io.Reader) error {
	if err := e.Flush(); err != nil {
		return err
	}
	d, err := snap.NewDecoder(r, "shard-engine", e.snapshotHash())
	if err != nil {
		return err
	}

	epoch := d.U64()
	nOwner := int(d.U32())
	if d.Err() == nil && nOwner != len(e.stations) {
		d.Fail("owner array has %d cells, want %d", nOwner, len(e.stations))
	}
	if d.Err() == nil && nOwner*8 > d.Len() {
		d.Fail("%d owners declared, %d payload bytes left", nOwner, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	owner := make([]int32, nOwner)
	for i := range owner {
		o := d.Int()
		if d.Err() == nil && (o < 0 || o >= len(e.shards)) {
			d.Fail("cell %d owned by shard %d of %d", i, o, len(e.shards))
		}
		owner[i] = int32(o)
	}

	ticks := d.I64()
	nLoad := int(d.U32())
	if d.Err() == nil && nLoad != len(e.cellLoad) {
		d.Fail("cell-load array has %d cells, want %d", nLoad, len(e.cellLoad))
	}
	if d.Err() == nil && nLoad*8 > d.Len() {
		d.Fail("%d cell loads declared, %d payload bytes left", nLoad, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	load := make([]int64, nLoad)
	for i := range load {
		load[i] = d.I64()
	}

	waves := d.I64()
	handoffCount := d.I64()
	crossShard := d.I64()
	drops := d.I64()
	handoffErrs := d.I64()
	exchanges := d.I64()
	ghostRows := d.I64()
	ghostRowsAll := d.I64()
	rebalances := d.I64()
	migrations := d.I64()
	migratedCalls := d.I64()

	nStations := int(d.U32())
	if d.Err() == nil && nStations != len(e.stations) {
		d.Fail("snapshot carries %d stations, want %d", nStations, len(e.stations))
	}
	if err := d.Err(); err != nil {
		return err
	}
	stationBlobs := make([][]byte, nStations)
	for i := range stationBlobs {
		stationBlobs[i] = d.Blob()
	}

	nShards := int(d.U32())
	if d.Err() == nil && nShards != len(e.shards) {
		d.Fail("snapshot carries %d shards, want %d", nShards, len(e.shards))
	}
	if err := d.Err(); err != nil {
		return err
	}
	ctrlBlobs := make([][]byte, nShards)
	for s := range ctrlBlobs {
		if d.Bool() {
			ctrlBlobs[s] = d.Blob()
		}
	}
	if err := d.Close(); err != nil {
		return err
	}

	// Envelope validated: install ownership, counters, stations and
	// controller state. Nested envelopes still validate themselves as
	// they restore.
	e.lockAll()
	defer e.unlockAll()
	e.own.Store(e.buildOwnership(owner, epoch))
	e.ticks.Store(ticks)
	for i := range e.cellLoad {
		atomic.StoreInt64(&e.cellLoad[i], load[i])
	}
	e.waves.Store(waves)
	e.handoffCount.Store(handoffCount)
	e.crossShard.Store(crossShard)
	e.drops.Store(drops)
	e.handoffErrs.Store(handoffErrs)
	e.exchanges.Store(exchanges)
	e.ghostRows.Store(ghostRows)
	e.ghostRowsAll.Store(ghostRowsAll)
	e.rebalances.Store(rebalances)
	e.migrations.Store(migrations)
	e.migratedCalls.Store(migratedCalls)

	for i, bs := range e.stations {
		if err := bs.RestoreFrom(bytes.NewReader(stationBlobs[i])); err != nil {
			return err
		}
	}
	for s, sh := range e.shards {
		if ctrlBlobs[s] == nil {
			continue
		}
		sn, ok := sh.ctrl.(cac.Snapshotter)
		if !ok {
			return snap.ErrSnapshotStale
		}
		if err := sn.RestoreFrom(bytes.NewReader(ctrlBlobs[s])); err != nil {
			return err
		}
	}
	return nil
}
