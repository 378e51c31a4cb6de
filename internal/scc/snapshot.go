package scc

import (
	"io"
	"math"
	"math/bits"
	"sort"

	"facs/internal/cac"
	"facs/internal/geo"
	"facs/internal/snap"
)

var _ cac.Snapshotter = (*Ledger)(nil)

// snapshotHash fingerprints everything the demand matrix's meaning
// depends on: every Config parameter that shapes footprints, limits or
// reservations, plus the network's cell layout and capacities. Two
// ledgers with equal hashes project identical demand for identical
// calls, so a snapshot restores only onto such a twin. Two retired
// parameters keep their slots as the constants full-reservation
// ledgers always hashed there (a mean holding time of 120 s and the
// mode number 2), so committed snapshots still restore.
func (l *Ledger) snapshotHash() uint64 {
	h := snap.NewHasher().
		Str("scc-ledger").
		F64(l.cfg.DeltaT).
		Int(l.cfg.Horizon).
		F64(l.cfg.Threshold).
		F64(l.cfg.SigmaPosM).
		F64(l.cfg.SpreadAlpha).
		F64(120).
		F64(l.cfg.MinProb).
		Int(2).
		F64(l.cfg.InclusionProb).
		F64(l.cfg.MaxSpeedKmh).
		Bool(l.cfg.RequireClusterCoverage).
		Int(len(l.stations))
	for _, bs := range l.stations {
		h.Int(bs.Hex().Q).Int(bs.Hex().R).Int(bs.Capacity())
	}
	return h.Sum()
}

// SnapshotTo implements cac.Snapshotter: it captures the ledger's full
// replay state — tracked calls, the demand/ghost/exported matrices (as
// float64 whole numbers, the payload's layout since the matrices were
// float), the dirty rows of the next export in ascending order,
// exchange generations and observability counters.
func (l *Ledger) SnapshotTo(w io.Writer) error {
	return l.writeSnapshot(w, wholeBU(l.demand), wholeBU(l.ghost), wholeBU(l.exported))
}

// wholeBU converts a matrix to the payload's float64 entries; nil stays
// nil.
func wholeBU(m []int) []float64 {
	if m == nil {
		return nil
	}
	out := make([]float64, len(m))
	for i, v := range m {
		out[i] = float64(v)
	}
	return out
}

// writeSnapshot encodes the ledger with the given matrix payloads.
func (l *Ledger) writeSnapshot(w io.Writer, demand, ghost, exported []float64) error {
	e := snap.NewEncoder(w, "scc-ledger", l.snapshotHash())

	e.U32(uint32(len(l.tracks)))
	for _, lt := range l.tracks {
		e.Int(lt.id)
		e.Int(lt.bu)
		e.F64(lt.pos.X)
		e.F64(lt.pos.Y)
		e.F64(lt.headingDeg)
		e.F64(lt.speedMps)
		e.Int(lt.home.Q)
		e.Int(lt.home.R)
	}

	e.F64s(demand)
	e.F64s(ghost)
	e.Bool(exported != nil)
	if exported != nil {
		e.F64s(exported)
	}
	e.U64(l.exportGen)

	shards := make([]int, 0, len(l.ghostGens))
	for s := range l.ghostGens { //facs:orderless key collection; encoded in sorted shard order below
		shards = append(shards, s)
	}
	sort.Ints(shards)
	e.U32(uint32(len(shards)))
	for _, s := range shards {
		e.Int(s)
		e.U64(l.ghostGens[s])
	}

	// The slot of a retired ops counter: always 0, and read unchecked.
	e.Int(0)
	// The slot of a retired dirty-queue epoch, kept so snapshots of
	// either layout restore: always 1, and any value >= 1 is read.
	e.U64(1)
	dirty := 0
	for _, word := range l.dirty {
		dirty += bits.OnesCount64(word)
	}
	e.U32(uint32(dirty))
	for w, word := range l.dirty {
		for ; word != 0; word &= word - 1 {
			e.Int(w<<6 + bits.TrailingZeros64(word))
		}
	}

	// The slots of the retired fallback and rebuild counters: always 0,
	// and read unchecked.
	e.I64(0)
	e.I64(0)
	e.I64(l.exports)
	e.I64(l.ghostApplies)
	e.I64(l.ghostRows)
	e.I64(l.migratedOut)
	e.I64(l.migratedIn)
	// The shadow work counters close the payload; snapshots written
	// before they existed end just above and restore them as zero.
	e.I64(l.classStats.shadows)
	e.I64(l.classStats.exact)
	e.I64(l.classStats.visited)
	e.I64(l.classStats.exps)

	return e.Close()
}

// RestoreFrom implements cac.Snapshotter: it replaces the ledger's
// state with a snapshot captured from an identically-configured
// instance. The blob is fully decoded and validated before any state
// changes; per-call footprints are not stored but re-derived with the
// same deterministic footprint computation OnAdmit and MigrateIn use,
// so they are bit-identical to the captured instance's cached ones.
func (l *Ledger) RestoreFrom(r io.Reader) error {
	d, err := snap.NewDecoder(r, "scc-ledger", l.snapshotHash())
	if err != nil {
		return err
	}

	nTracks := int(d.U32())
	// A track costs 8 fields x 8 bytes of payload.
	if d.Err() == nil && nTracks*64 > d.Len() {
		d.Fail("%d tracks declared, %d payload bytes left", nTracks, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	ids := make([]int, nTracks)
	tracks := make([]track, nTracks)
	for i := range tracks {
		ids[i] = d.Int()
		tracks[i] = track{
			bu:         d.Int(),
			pos:        geo.Point{X: d.F64(), Y: d.F64()},
			headingDeg: d.F64(),
			speedMps:   d.F64(),
			home:       geo.Hex{Q: d.Int(), R: d.Int()},
		}
		if d.Err() != nil {
			break
		}
		if i > 0 && ids[i] <= ids[i-1] {
			d.Fail("track IDs not strictly ascending at %d", ids[i])
		}
		if tracks[i].bu <= 0 {
			d.Fail("track %d has non-positive bandwidth %d", ids[i], tracks[i].bu)
		}
		if _, ok := l.stationIndex(tracks[i].home); !ok {
			d.Fail("track %d homes at unknown cell %v", ids[i], tracks[i].home)
		}
	}

	demand := matrix(d, "demand", d.F64s(), len(l.demand))
	ghost := matrix(d, "ghost", d.F64s(), len(l.ghost))
	var exported []int
	if d.Bool() {
		exported = matrix(d, "exported", d.F64s(), len(l.demand))
	}
	exportGen := d.U64()

	nGens := int(d.U32())
	if d.Err() == nil && nGens*16 > d.Len() {
		d.Fail("%d ghost generations declared, %d payload bytes left", nGens, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	genShards := make([]int, nGens)
	genVals := make([]uint64, nGens)
	for i := range genShards {
		genShards[i] = d.Int()
		genVals[i] = d.U64()
		if d.Err() == nil && i > 0 && genShards[i] <= genShards[i-1] {
			d.Fail("ghost-generation shards not strictly ascending at %d", genShards[i])
		}
	}

	d.Int() // retired ops counter
	if dirtyEpoch := d.U64(); d.Err() == nil && dirtyEpoch == 0 {
		d.Fail("dirty epoch must be >= 1")
	}
	nDirty := int(d.U32())
	if d.Err() == nil && nDirty*8 > d.Len() {
		d.Fail("%d dirty rows declared, %d payload bytes left", nDirty, d.Len())
	}
	if err := d.Err(); err != nil {
		return err
	}
	dirtyIdx := make([]int, nDirty)
	for i := range dirtyIdx {
		dirtyIdx[i] = d.Int()
		if d.Err() == nil && (dirtyIdx[i] < 0 || dirtyIdx[i] >= len(l.demand)) {
			d.Fail("dirty row %d out of range", dirtyIdx[i])
		}
	}

	d.I64() // retired fallback counter
	d.I64() // retired rebuild counter
	exports := d.I64()
	ghostApplies := d.I64()
	ghostRows := d.I64()
	migratedOut := d.I64()
	migratedIn := d.I64()
	var work classStats
	if d.Err() == nil && d.Len() > 0 {
		work.shadows, work.exact, work.visited, work.exps = d.I64(), d.I64(), d.I64(), d.I64()
	}

	if err := d.Close(); err != nil {
		return err
	}

	// Everything validated: install the snapshot. Footprints stashed by
	// decisions before the restore are dropped with the state they were
	// decided against.
	l.resetHandover()
	l.tracks = make([]*ledgerTrack, nTracks)
	for i, tr := range tracks {
		l.tracks[i] = &ledgerTrack{id: ids[i], track: tr, foot: l.footprint(nil, tr)}
	}
	copy(l.demand, demand)
	copy(l.ghost, ghost)
	l.exported = exported
	l.exportGen = exportGen
	l.ghostGens = make(map[int]uint64, nGens)
	for i, s := range genShards {
		l.ghostGens[s] = genVals[i]
	}
	clear(l.dirty)
	for _, i := range dirtyIdx {
		l.markDirty(i)
	}
	l.exports = exports
	l.ghostApplies = ghostApplies
	l.ghostRows = ghostRows
	l.migratedOut = migratedOut
	l.migratedIn = migratedIn
	// Deriving the footprints above is not the captured instance's work.
	l.classStats.shadows, l.classStats.exact = work.shadows, work.exact
	l.classStats.visited, l.classStats.exps = work.visited, work.exps
	return nil
}

// matrix checks one decoded matrix payload and converts it to whole BU:
// it must hold want entries, each a whole number of magnitude below
// 2^53, where float64 holds every integer and the conversion to int and
// back is exact. A failure marks d corrupt and returns nil.
func matrix(d *snap.Decoder, name string, vals []float64, want int) []int {
	if d.Err() != nil {
		return nil
	}
	if len(vals) != want {
		d.Fail("%s matrix has %d entries, want %d", name, len(vals), want)
		return nil
	}
	out := make([]int, want)
	for i, v := range vals {
		if v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
			d.Fail("%s entry %d is %v, not a whole number of BU below 2^53", name, i, v)
			return nil
		}
		out[i] = int(v)
	}
	return out
}
