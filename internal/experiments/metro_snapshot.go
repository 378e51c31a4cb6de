package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"facs/internal/cac"
	"facs/internal/snap"
	"facs/internal/traffic"
)

// MetroSnapshotFile is the file name RunMetropolis writes into
// MetropolisConfig.SnapshotDir.
const MetroSnapshotFile = "metropolis.snap"

// snapshotConfigHash fingerprints every configuration value that shapes
// the workload or the decision stream. A snapshot restores only into a
// run whose hash matches, except Waves: the remaining-wave budget is
// the one knob a resumed run may legitimately change (resume-and-extend
// is the crash-recovery pattern itself). The scenario constants and the
// retired interest-scope switch (always off) are hashed in the slots
// their config fields held, so older snapshots still restore.
func (r *metroRun) snapshotConfigHash() uint64 {
	cfg := r.cfg
	return snap.NewHasher().
		Str("metro-run").
		Int(int(cfg.Mode)).
		Int(cfg.Shards).
		Int(int(cfg.Partition)).
		Int(cfg.RebalanceEveryTicks).
		Int(cfg.Rebalance.MaxMoves).
		F64(cfg.Rebalance.Tolerance).
		Bool(false).
		Int(cfg.Rings).
		F64(cfg.CellRadiusM).
		Int(cfg.CapacityBU).
		Int(cfg.TargetCalls).
		Int(cfg.WavesPerDay).
		F64(metroStartHour).
		Int(metroHotspots).
		F64(metroHotspotSigmaCells).
		F64(metroRushBias).
		F64(metroMix.Text).
		F64(metroMix.Voice).
		F64(metroMix.Video).
		F64(cfg.SpeedKmh.Min).
		F64(cfg.SpeedKmh.Max).
		Int(metroHoldWavesMin).
		Int(metroHoldWavesMax).
		Int(cfg.HandoffEveryWaves).
		F64(metroHandoffFraction).
		Int(cfg.TickEveryWaves).
		F64(metroWaveSec(cfg.WavesPerDay)).
		Int(cfg.MaxBatch).
		I64(cfg.Seed).
		Sum()
}

// snapshotTo captures the run's complete replay state at a wave
// boundary: the wave cursor, the active-call ledger, the decision
// digest, both RNG streams' positions (as draw counts — see
// sim.CountedSource; the call stream's is callDraws, its position at
// the wave boundary, however far the drawer has drawn ahead)
// and the engine's state. Restoring the blob into a fresh
// identically-configured run and replaying the remaining waves
// reproduces the uninterrupted run's outcomes byte for byte.
func (r *metroRun) snapshotTo(w io.Writer) error {
	e := snap.NewEncoder(w, "metro-run", r.snapshotConfigHash())

	e.Int(r.wave)
	e.Int(r.nextID)
	e.Int(r.result.Requested)
	e.Int(r.result.Accepted)
	e.Int(r.result.Committed)
	e.Int(r.result.Released)
	e.Int(r.result.Handoffs)
	e.Int(r.result.HandoffDropped)
	e.Int(r.result.CrossShard)
	e.Int(r.result.PeakConcurrent)
	e.Int(r.result.Waves)
	e.Int(r.result.Snapshots)
	e.U64(uint64(r.hash))

	e.U32(uint32(r.ledger.len()))
	for i := 0; i < r.ledger.len(); i++ {
		e.Int(int(r.ledger.id[i]))
		e.Int(int(r.ledger.class[i]))
		e.Int(int(r.ledger.bu[i]))
		e.Int(int(r.ledger.station[i]))
		e.Int(int(r.ledger.release[i]))
	}

	e.U64(r.callDraws)
	e.U64(r.handoffSrc.Draws())

	switch eng := r.engine.(type) {
	case *shardMetroEngine:
		e.Bool(true)
		var buf bytes.Buffer
		if err := eng.engine.SnapshotTo(&buf); err != nil {
			return err
		}
		e.Blob(buf.Bytes())
	case *inlineMetroEngine:
		e.Bool(false)
		var buf bytes.Buffer
		e.U32(uint32(len(r.workload.stations)))
		for _, bs := range r.workload.stations {
			buf.Reset()
			if err := bs.SnapshotTo(&buf); err != nil {
				return err
			}
			e.Blob(buf.Bytes())
		}
		sn, ok := eng.core.Controller().(cac.Snapshotter)
		e.Bool(ok)
		if ok {
			buf.Reset()
			if err := sn.SnapshotTo(&buf); err != nil {
				return err
			}
			e.Blob(buf.Bytes())
		}
	default:
		return fmt.Errorf("experiments: engine %T cannot snapshot", r.engine)
	}
	return e.Close()
}

// restoreFrom installs a snapshot written by snapshotTo into a freshly
// constructed run (wave 0, untouched RNG streams, no arrival drawn
// yet). The envelope is fully decoded and validated before any
// state changes; the RNG streams fast-forward to their recorded
// positions, so every subsequent draw matches the draw the captured run
// would have made.
func (r *metroRun) restoreFrom(rd io.Reader) error {
	if r.started {
		return fmt.Errorf("experiments: restore into a run that already started drawing arrivals")
	}
	d, err := snap.NewDecoder(rd, "metro-run", r.snapshotConfigHash())
	if err != nil {
		return err
	}

	wave := d.Int()
	nextID := d.Int()
	counters := [10]int{}
	for i := range counters {
		counters[i] = d.Int()
	}
	digest := d.U64()
	if d.Err() == nil {
		if wave < 0 {
			d.Fail("negative wave cursor %d", wave)
		}
		if nextID < 1 {
			d.Fail("next call ID %d, want >= 1", nextID)
		}
		for i, c := range counters {
			if c < 0 {
				d.Fail("negative result counter %d at %d", c, i)
			}
		}
	}

	nCalls := int(d.U32())
	// One ledger entry costs 5 x 8 payload bytes.
	if d.Err() == nil && nCalls*40 > d.Len() {
		d.Fail("%d active calls declared, %d payload bytes left", nCalls, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	var led metroLedger
	for i := 0; i < nCalls; i++ {
		id := d.Int()
		class := traffic.Class(d.Int())
		bu := d.Int()
		station := d.Int()
		release := d.Int()
		if d.Err() != nil {
			break
		}
		if !class.Valid() {
			d.Fail("call %d has invalid class %d", id, int(class))
		}
		if bu <= 0 || bu > 127 {
			d.Fail("call %d has bandwidth %d outside (0, 127]", id, bu)
		}
		if station < 0 || station >= len(r.workload.stations) {
			d.Fail("call %d at station %d of %d", id, station, len(r.workload.stations))
		}
		if release < 0 {
			d.Fail("call %d has negative release wave %d", id, release)
		}
		led.push(id, class, bu, station, release)
	}

	callDraws := d.U64()
	handoffDraws := d.U64()

	sharded := d.Bool()
	var engineBlob []byte
	var stationBlobs [][]byte
	var ctrlBlob []byte
	hasCtrl := false
	if sharded {
		engineBlob = d.Blob()
		if _, ok := r.engine.(*shardMetroEngine); d.Err() == nil && !ok {
			return snap.ErrSnapshotStale
		}
	} else {
		nStations := int(d.U32())
		if d.Err() == nil && nStations != len(r.workload.stations) {
			d.Fail("snapshot carries %d stations, want %d", nStations, len(r.workload.stations))
		}
		if err := d.Err(); err != nil {
			return err
		}
		stationBlobs = make([][]byte, nStations)
		for i := range stationBlobs {
			stationBlobs[i] = d.Blob()
		}
		hasCtrl = d.Bool()
		if hasCtrl {
			ctrlBlob = d.Blob()
		}
		if _, ok := r.engine.(*inlineMetroEngine); d.Err() == nil && !ok {
			return snap.ErrSnapshotStale
		}
	}
	if err := d.Close(); err != nil {
		return err
	}

	// Envelope validated: restore the engine first (its nested envelope
	// still validates itself), then install the driver state.
	switch eng := r.engine.(type) {
	case *shardMetroEngine:
		if err := eng.engine.RestoreFrom(bytes.NewReader(engineBlob)); err != nil {
			return err
		}
	case *inlineMetroEngine:
		for i, bs := range r.workload.stations {
			if err := bs.RestoreFrom(bytes.NewReader(stationBlobs[i])); err != nil {
				return err
			}
		}
		sn, ok := eng.core.Controller().(cac.Snapshotter)
		if ok != hasCtrl {
			return snap.ErrSnapshotStale
		}
		if hasCtrl {
			if err := sn.RestoreFrom(bytes.NewReader(ctrlBlob)); err != nil {
				return err
			}
		}
	}

	r.wave = wave
	r.nextID = nextID
	r.result.Requested = counters[0]
	r.result.Accepted = counters[1]
	r.result.Committed = counters[2]
	r.result.Released = counters[3]
	r.result.Handoffs = counters[4]
	r.result.HandoffDropped = counters[5]
	r.result.CrossShard = counters[6]
	r.result.PeakConcurrent = counters[7]
	r.result.Waves = counters[8]
	r.result.Snapshots = counters[9]
	r.hash = fnv1a(digest)
	r.ledger = led
	if r.callSrc.Draws() > callDraws || r.handoffSrc.Draws() > handoffDraws {
		return fmt.Errorf("experiments: restore into a run whose RNG streams already advanced past the snapshot")
	}
	r.callSrc.Skip(callDraws - r.callSrc.Draws())
	r.callDraws = callDraws
	r.handoffSrc.Skip(handoffDraws - r.handoffSrc.Draws())
	return nil
}

// writeSnapshot atomically writes the run's snapshot file into
// SnapshotDir and counts it. It runs strictly between waves, so its
// allocations never touch the wave loop's zero-allocation budget.
func (r *metroRun) writeSnapshot() error {
	path := filepath.Join(r.cfg.SnapshotDir, MetroSnapshotFile)
	if _, err := snap.WriteFileAtomic(path, r.snapshotTo); err != nil {
		return fmt.Errorf("experiments: writing snapshot: %w", err)
	}
	r.result.Snapshots++
	return nil
}

// restoreFromFile warm-starts the run from a snapshot file.
func (r *metroRun) restoreFromFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("experiments: opening snapshot: %w", err)
	}
	defer f.Close()
	if err := r.restoreFrom(f); err != nil {
		return fmt.Errorf("experiments: restoring %s: %w", path, err)
	}
	return nil
}
