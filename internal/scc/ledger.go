package scc

import (
	"fmt"
	"math"
	"math/bits"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
)

// footCell is one shadow-cluster contribution of a call: `amount` whole
// BU of projected demand in dense cell `cell` at interval `k` (the
// call's bandwidth, or 0 for a cell the cluster only checks). A
// footprint lists its cells in ascending (k, cell) order: intervals
// outermost, shadows in station order.
type footCell struct {
	cell   int32
	k      int32
	amount int
}

// ledgerTrack is the per-call state of the ledger: the projection source
// plus the cached footprint currently applied to the demand matrix.
type ledgerTrack struct {
	id int
	track
	foot []footCell
}

// handover is one accepted decision's footprint, stashed by Decide for
// the OnAdmit that commits it: the key the footprint is a pure function
// of (the call ID only locates the entry), plus the range of handCells
// holding the footprint.
type handover struct {
	id         int
	bu         int
	pos        geo.Point
	headingDeg float64
	speedMps   float64
	lo, hi     int
}

// matches reports whether the stashed footprint was derived from exactly
// this key; floats compare bitwise.
func (h *handover) matches(id, bu int, pos geo.Point, headingDeg, speedMps float64) bool {
	return h.id == id && h.bu == bu &&
		math.Float64bits(h.pos.X) == math.Float64bits(pos.X) &&
		math.Float64bits(h.pos.Y) == math.Float64bits(pos.Y) &&
		math.Float64bits(h.headingDeg) == math.Float64bits(headingDeg) &&
		math.Float64bits(h.speedMps) == math.Float64bits(speedMps)
}

// Ledger is the incrementally maintained shadow-cluster admission
// controller: a dense [cell][interval] matrix of aggregated projected
// demand plus a cached shadow-cluster footprint per tracked call.
// OnAdmit, OnRelease and OnStateUpdate update the matrix in O(footprint);
// Decide reads it in O(horizon x cluster-cells), independent of the
// number of active calls — against the recompute Controller's
// O(active x horizon x stations) per decision.
//
// Every shadow the ledger derives comes from cluster (ledger_shadow.go):
// a hex-ring walk certifies each nearby station's class (none,
// check-only, reserve), and the reference appendShadow answers only
// when a class is uncertain. Either way the cells and amounts are the
// oracle's, so footprints derived on a commit miss, a handoff or a
// migration are the oracle's too.
//
// Decisions are byte-identical to the recompute Controller's. Every
// footprint amount is a whole number of BU, so the matrix holds integer
// sums that every admit, release and update keeps exact, equal to the
// oracle's float sum of the same terms. Decide compares them against
// the integer limit floor(Threshold x capacity): for an integer x,
// x > t exactly when x > floor(t), so it answers as the oracle's float
// comparison does.
//
// An accepted decision already holds the request's footprint; Decide
// stashes it and OnAdmit adopts it when the committed request carries
// the same key, so a decide-then-commit cycle derives each shadow once.
//
// A Ledger additionally implements cac.DemandExchanger: under the
// sharded engine, sibling ledgers exchange demand deltas at tick
// barriers (ExportDemand / ApplyGhost), each storing remote demand in a
// separate ghost matrix that Decide sums into its aggregate — restoring
// the global demand visibility the shard partition would otherwise
// remove. See the package documentation's Sharding section.
//
// A Ledger implements cac.Controller, cac.BatchController, cac.Observer,
// cac.StateUpdater, cac.Ticker (as a no-op) and cac.DemandExchanger. It
// is not safe for concurrent use; the simulation kernel is single-threaded, and a
// serve.Core owning the ledger is serialized by its owner (a Service's
// or a shard's lock).
type Ledger struct {
	cfg      Config
	stations []*cell.BaseStation
	limits   []int // floor(Threshold x capacity), per dense cell index
	// demand is the dense matrix: demand[c*(Horizon+1)+k] is the
	// aggregated projected demand in BU of cell c at interval k, over the
	// calls THIS instance tracks.
	demand []int
	// ghost mirrors demand for remote instances: ghost[c*(Horizon+1)+k]
	// accumulates the deltas sibling shards exported via ApplyGhost.
	// Decide reads demand+ghost.
	ghost []int
	// tracks holds every tracked call in ascending call-ID order — the
	// oracle's summation order — and is searched by ID (findTrack).
	tracks []*ledgerTrack

	// exported snapshots demand at the last ExportDemand (allocated on
	// first export); exportGen counts exports, ghostGens the last applied
	// generation per source shard.
	exported  []int
	exportGen uint64
	ghostGens map[int]uint64

	// dirty makes ExportDemand scale with the entries touched since the
	// last export rather than the matrix size: every demand write sets the
	// bit of its dense index, and ExportDemand walks the set bits in
	// ascending index order (== cell-major row order), clearing them as
	// it goes.
	dirty []uint64
	// rowsBuf backs the exported DemandDelta.Rows; see ExportDemand for
	// the aliasing contract.
	rowsBuf []DemandRow

	exports      int64
	ghostApplies int64
	ghostRows    int64
	migratedOut  int64
	migratedIn   int64

	// stationPos holds the station positions in dense index order.
	stationPos []geo.Point

	// Tables of the station lookup and of the class shadow
	// (ledger_shadow.go), built once. hexIdx maps axial
	// coordinates (Q-hexQ0, R-hexR0) over the stations' bounding box
	// padded by span, hexW wide and hexH high, to a dense station index
	// (-1 for none); every hex lookup of the ledger goes through it
	// (stationIndex), the coverage check and the class shadow's ring
	// walk included. spiralStep lists the hex offsets out to span, the
	// largest hex distance between two stations, ring by ring, as steps
	// in hexIdx, and ringD2[j] is the least squared distance, shrunk by
	// the slack, from a point within one cell radius of a station to the
	// stations j rings away. classes enables the class shadow (every
	// station within shadowMaxCoord and T = classNats below
	// shadowCapNats); exp is its table exp, classRel the relative slack
	// of its weight and sum bounds and classTail bounds e^-T from above.
	// needHex says whether projections carry their hex (the coverage
	// check or the class shadow reads it).
	layout                   geo.Layout
	hexIdx                   []int32
	hexQ0, hexR0, hexW, hexH int
	spiralStep               []int
	ringD2                   []float64
	span                     int
	classes                  bool
	needHex                  bool
	classNats                float64
	classRel                 float64
	classTail                float64
	exp                      classExp
	classStats               classStats

	// Scratch buffers (single-threaded by contract): plan holds the
	// intervals of the request under decision, reqCluster its cluster,
	// trackCluster a tracked call's cluster in exactDemand and shadowBuf
	// the reference shadow behind a cluster the class shadow could not
	// certify. bound and evaluated hold the class shadow's visited
	// stations and candidates with their exponents side by side, and
	// weights the candidates' weights (and appendShadow's per-station
	// weights).
	weights      []float64
	bound        []float64
	evaluated    []int32
	plan         []interval
	reqCluster   []footCell
	trackCluster []footCell
	shadowBuf    []CellProb

	// The Decide -> OnAdmit footprint hand-over: transient, reset by
	// Decide, DecideBatchInto and RestoreFrom, never snapshotted. Each
	// accepted decision appends one handover entry and its footprint
	// cells; OnAdmit scans from handNext for its entry.
	hand      []handover
	handCells []footCell
	handNext  int
}

var (
	_ cac.Controller          = (*Ledger)(nil)
	_ cac.BatchController     = (*Ledger)(nil)
	_ cac.BatchIntoController = (*Ledger)(nil)
	_ cac.Observer            = (*Ledger)(nil)
	_ cac.StateUpdater        = (*Ledger)(nil)
	_ cac.Ticker              = (*Ledger)(nil)
	_ cac.DemandExchanger     = (*Ledger)(nil)
	_ cac.CellMigrator        = (*Ledger)(nil)
	_ cac.InterestScoped      = (*Ledger)(nil)
	_ cac.ExchangeResetter    = (*Ledger)(nil)
)

// DemandDelta is the demand-exchange payload (see cac.DemandDelta).
type DemandDelta = cac.DemandDelta

// DemandRow is one (cell, interval) demand change (see cac.DemandRow).
type DemandRow = cac.DemandRow

// NewLedger constructs an incrementally maintained shadow-cluster
// controller.
func NewLedger(cfg Config) (*Ledger, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stations := cfg.Network.Stations()
	l := &Ledger{
		cfg:        cfg,
		stations:   stations,
		limits:     make([]int, len(stations)),
		demand:     make([]int, len(stations)*(cfg.Horizon+1)),
		ghost:      make([]int, len(stations)*(cfg.Horizon+1)),
		ghostGens:  make(map[int]uint64),
		stationPos: make([]geo.Point, len(stations)),
		weights:    make([]float64, len(stations)),
		bound:      make([]float64, len(stations)),
		evaluated:  make([]int32, len(stations)),
		plan:       make([]interval, cfg.Horizon+1),
	}
	l.dirty = make([]uint64, (len(l.demand)+63)/64)
	l.classNats = math.Max(shadowClassNats, math.Log(1/cfg.MinProb)+2)
	l.classes = l.classNats < shadowCapNats
	for i, bs := range stations {
		// The oracle's test is a float comparison against this product;
		// a whole-BU sum exceeds it exactly when it exceeds its floor.
		l.limits[i] = int(math.Floor(cfg.Threshold * float64(bs.Capacity())))
		p := bs.Pos()
		l.stationPos[i] = p
		if !(math.Abs(p.X) <= shadowMaxCoord && math.Abs(p.Y) <= shadowMaxCoord) {
			l.classes = false
		}
	}
	l.buildHexTables()
	l.needHex = l.classes || cfg.RequireClusterCoverage
	// Twice the widest e-vs-x slack below shadowCapNats, twice the
	// reference's and the table's exp errors, and four roundings per
	// station plus a few: more than every rounding of the reference's
	// sum and of the bounds' own arithmetic.
	l.classRel = 2*shadowSlack*(shadowCapNats+2) + 2*shadowExpErr + 2*tableExpErr + 4*float64(len(stations)+4)*0x1p-53
	l.classTail = math.Exp(-l.classNats) * (1 + 4*shadowExpErr)
	if l.classes {
		// A candidate's relative exponent is under classNats plus 2e-6.
		l.exp = newClassExp(l.classNats + 1)
	}
	return l, nil
}

// buildHexTables fills the dense hex-to-station table and the ring
// spiral the class shadow walks. The table pads the stations' bounding
// box by span on every side, so a walk from a station reaches only
// entries inside it, each offset a fixed step in the flat table.
func (l *Ledger) buildHexTables() {
	l.layout = l.cfg.Network.Layout()
	h0 := l.stations[0].Hex()
	qmin, qmax, rmin, rmax, smin, smax := h0.Q, h0.Q, h0.R, h0.R, h0.S(), h0.S()
	for _, bs := range l.stations {
		h := bs.Hex()
		qmin, qmax = min(qmin, h.Q), max(qmax, h.Q)
		rmin, rmax = min(rmin, h.R), max(rmax, h.R)
		smin, smax = min(smin, h.S()), max(smax, h.S())
	}
	// Hex distance is the largest axial-coordinate difference.
	l.span = max(qmax-qmin, rmax-rmin, smax-smin)
	l.hexQ0, l.hexR0 = qmin-l.span, rmin-l.span
	l.hexW, l.hexH = qmax-qmin+1+2*l.span, rmax-rmin+1+2*l.span
	l.hexIdx = make([]int32, l.hexW*l.hexH)
	for i := range l.hexIdx {
		l.hexIdx[i] = -1
	}
	for i, bs := range l.stations {
		l.hexIdx[l.hexSlot(bs.Hex())] = int32(i)
	}
	spiral := geo.Hex{}.Spiral(l.span)
	l.spiralStep = make([]int, len(spiral))
	for i, off := range spiral {
		l.spiralStep[i] = off.R*l.hexW + off.Q
	}
	l.ringD2 = make([]float64, l.span+1)
	for j := range l.ringD2 {
		dj := (1.5*float64(j) - 1) * l.layout.CellRadius * (1 - shadowSlack)
		l.ringD2[j] = dj * dj
	}
}

// stationIndex returns the dense index of the station at hex h and
// whether there is one: the network's own station map, as a table.
func (l *Ledger) stationIndex(h geo.Hex) (int32, bool) {
	q, r := h.Q-l.hexQ0, h.R-l.hexR0
	if uint(q) >= uint(l.hexW) || uint(r) >= uint(l.hexH) {
		return -1, false
	}
	i := l.hexIdx[r*l.hexW+q]
	return i, i >= 0
}

// hexSlot returns the hexIdx position of a hex inside the table.
func (l *Ledger) hexSlot(h geo.Hex) int {
	return (h.R-l.hexR0)*l.hexW + h.Q - l.hexQ0
}

// Name implements cac.Controller.
func (l *Ledger) Name() string { return "scc-ledger" }

// Config returns the effective configuration (defaults applied).
func (l *Ledger) Config() Config { return l.cfg }

// ActiveCalls returns the number of calls currently projecting shadows.
func (l *Ledger) ActiveCalls() int { return len(l.tracks) }

// LedgerStats is a point-in-time snapshot of one ledger's internal
// counters — the observability surface for ledgers running behind a
// serve.Service or a shard.Engine shard lock, where the instance
// itself is only reachable through a serialized Do call.
type LedgerStats struct {
	// ActiveCalls is the number of calls currently projecting shadows.
	ActiveCalls int
	// ExactFallbacks is always 0: whole-BU aggregates are exact, so no
	// decision falls back to a re-summed aggregate. The field remains
	// for readers that still name it (perfbench's scc.fallback_ratio).
	ExactFallbacks int64
	// Exports counts ExportDemand calls; Generation is the current
	// export generation (equal to Exports on a live ledger).
	Exports    int64
	Generation uint64
	// GhostApplies counts accepted ApplyGhost deliveries; GhostRows the
	// (cell, interval) rows they carried.
	GhostApplies, GhostRows int64
	// MigratedOut / MigratedIn count tracked calls handed to / received
	// from sibling ledgers through the elastic-sharding migration seam.
	MigratedOut, MigratedIn int64
	// ClassShadows counts the clusters the class shadow was asked for,
	// ExactShadows those it could not certify, which the reference
	// appendShadow derived instead. Visited counts the stations whose
	// distance those clusters computed, Exps the station weights they
	// evaluated: by the table exp in class shadows, by math.Exp (every
	// station) in exact ones.
	ClassShadows, ExactShadows, Visited, Exps int64
}

// Add returns the field-wise aggregation of two snapshots (counters and
// active calls sum; Generation takes the maximum), used to combine the
// per-shard ledgers of a sharded engine into one summary.
func (s LedgerStats) Add(o LedgerStats) LedgerStats {
	s.ActiveCalls += o.ActiveCalls
	s.Exports += o.Exports
	s.GhostApplies += o.GhostApplies
	s.GhostRows += o.GhostRows
	s.MigratedOut += o.MigratedOut
	s.MigratedIn += o.MigratedIn
	s.ClassShadows += o.ClassShadows
	s.ExactShadows += o.ExactShadows
	s.Visited += o.Visited
	s.Exps += o.Exps
	if o.Generation > s.Generation {
		s.Generation = o.Generation
	}
	return s
}

// String renders a one-line operator summary.
func (s LedgerStats) String() string {
	return fmt.Sprintf("scc-ledger: %d active, %d exports, %d ghost applies (%d rows), %d migrated out, %d migrated in, %d class shadows, %d exact shadows, %d stations visited, %d weights evaluated",
		s.ActiveCalls, s.Exports, s.GhostApplies, s.GhostRows, s.MigratedOut, s.MigratedIn,
		s.ClassShadows, s.ExactShadows, s.Visited, s.Exps)
}

// Snapshot returns the current counter set. Call it from the decision
// loop that owns the ledger (e.g. via shard.Engine.Do); the ledger
// itself is not concurrency-safe.
func (l *Ledger) Snapshot() LedgerStats {
	return LedgerStats{
		ActiveCalls:  len(l.tracks),
		Exports:      l.exports,
		Generation:   l.exportGen,
		GhostApplies: l.ghostApplies,
		GhostRows:    l.ghostRows,
		MigratedOut:  l.migratedOut,
		MigratedIn:   l.migratedIn,
		ClassShadows: l.classStats.shadows,
		ExactShadows: l.classStats.exact,
		Visited:      l.classStats.visited,
		Exps:         l.classStats.exps,
	}
}

// footprint computes the shadow-cluster footprint of one track: its
// reserved demand per (cell, interval) over the projection horizon,
// appended to dst. Zero reservations are skipped: adding 0 to a matrix
// entry changes nothing.
func (l *Ledger) footprint(dst []footCell, tr track) []footCell {
	unit := geo.UnitFromHeading(tr.headingDeg)
	for k := 0; k <= l.cfg.Horizon; k++ {
		start := len(dst)
		dst = l.cluster(dst, &tr, unit, k)
		kept := start
		for _, fc := range dst[start:] {
			if fc.amount != 0 {
				dst[kept] = fc
				kept++
			}
		}
		dst = dst[:kept]
	}
	return dst
}

// apply adds (sign=+1) or removes (sign=-1) a footprint to the matrix.
func (l *Ledger) apply(foot []footCell, sign int) {
	h := l.cfg.Horizon + 1
	for _, fc := range foot {
		mi := int(fc.cell)*h + int(fc.k)
		l.demand[mi] += sign * fc.amount
		l.markDirty(mi)
	}
}

// markDirty marks dense matrix index mi for the next ExportDemand scan.
func (l *Ledger) markDirty(mi int) {
	l.dirty[mi>>6] |= 1 << (mi & 63)
}

// OnTick implements cac.Ticker as a no-op. Every matrix entry is an
// exact whole-BU sum, so time has nothing to reset; projections are
// anchored to each call's last observed kinematics, exactly like the
// recompute Controller's. The method remains because perfbench's traced
// ledger requires the capability.
func (l *Ledger) OnTick(now float64) {}

// ExportDemand implements cac.DemandExchanger: it returns the change of
// this ledger's OWN demand matrix (local tracks only — never the ghost
// matrix, which would echo other shards' demand back at them) since the
// previous export, as (cell, interval) rows in deterministic cell-major
// order, and advances the generation counter.
//
// The sharded engine calls it inside the Tick barrier. Receivers
// accumulate the deltas; consecutive exports telescope (each row is the
// exact whole-BU difference of two matrix states), so a receiver's
// accumulated ghost equals this ledger's matrix exactly.
//
// The scan is sparse: only entries apply marked in a bitset since the
// previous export are visited, so an export costs O(touched rows) plus
// one word test per 64 entries, and needs no sort. The returned Rows
// slice aliases a buffer the ledger reuses — it is valid until the next
// ExportDemand call, matching the exchange barrier's lifecycle (every
// receiver applies the delta before the next tick's export).
//
//facs:hotpath
func (l *Ledger) ExportDemand() DemandDelta {
	if l.exported == nil {
		l.exported = make([]int, len(l.demand)) //facs:alloc one-time lazy init; amortized to zero at steady state
	}
	h := l.cfg.Horizon + 1
	// Ascending dense index == cell-major (cell, interval) order, the
	// same deterministic row order a full-matrix scan produced.
	rows := l.rowsBuf[:0]
	for w, word := range l.dirty {
		if word == 0 {
			continue
		}
		l.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			mi := w<<6 + bits.TrailingZeros64(word)
			cur := l.demand[mi]
			if cur == l.exported[mi] {
				continue
			}
			rows = append(rows, DemandRow{Cell: l.stations[mi/h].Hex(), K: mi % h, Amount: cur - l.exported[mi]})
			l.exported[mi] = cur
		}
	}
	l.rowsBuf = rows
	l.exportGen++
	l.exports++
	return DemandDelta{Gen: l.exportGen, Rows: rows}
}

// ApplyGhost implements cac.DemandExchanger: it accumulates a sibling
// shard's demand delta into the ghost matrix that Decide sums into its
// aggregate. Deltas whose generation does not advance past the last one
// applied from the same source are ignored (replay / out-of-order
// protection); rows naming cells outside this ledger's network or
// intervals beyond the horizon are skipped.
func (l *Ledger) ApplyGhost(shardID int, delta DemandDelta) {
	if last, ok := l.ghostGens[shardID]; ok && delta.Gen <= last {
		return
	}
	l.ghostGens[shardID] = delta.Gen
	h := l.cfg.Horizon + 1
	for _, r := range delta.Rows {
		ci, ok := l.stationIndex(r.Cell)
		if !ok || r.K < 0 || r.K >= h {
			continue
		}
		l.ghost[int(ci)*h+r.K] += r.Amount
		l.ghostRows++
	}
	l.ghostApplies++
}

// GhostDemand returns the accumulated remote projected demand in BU for
// cell j at interval k — the ghost matrix ApplyGhost maintains. It is 0
// for any cell/interval outside the matrix and on ledgers that never
// received a ghost delta.
func (l *Ledger) GhostDemand(j geo.Hex, k int) int {
	ci, ok := l.stationIndex(j)
	if !ok || k < 0 || k > l.cfg.Horizon {
		return 0
	}
	return l.ghost[int(ci)*(l.cfg.Horizon+1)+k]
}

// MigrateOut implements cac.CellMigrator: it extracts every tracked
// call homed in cell h — in ascending call-ID order, appended to dst —
// retracting each call's projected demand from the matrix and dropping
// its track. The receiving sibling recreates the footprints from the
// same configuration and kinematics, so demand moves bit-identically:
// MigrateIn applies exactly the amounts MigrateOut retracted.
func (l *Ledger) MigrateOut(h geo.Hex, dst []cac.MigratedCall) []cac.MigratedCall {
	kept := l.tracks[:0]
	for _, lt := range l.tracks {
		if lt.home != h {
			kept = append(kept, lt)
			continue
		}
		l.apply(lt.foot, -1)
		dst = append(dst, cac.MigratedCall{
			ID:         lt.id,
			BU:         lt.bu,
			Pos:        lt.pos,
			HeadingDeg: lt.headingDeg,
			SpeedMps:   lt.speedMps,
			Home:       lt.home,
		})
		l.migratedOut++
	}
	clear(l.tracks[len(kept):])
	l.tracks = kept
	return dst
}

// MigrateIn implements cac.CellMigrator: it recreates the given tracks
// (computing each footprint from this ledger's configuration — bitwise
// the same amounts the source retracted, both instances sharing one
// Config and network) and applies their demand. A row whose ID is
// already tracked replaces the existing projection source, mirroring
// OnAdmit's re-admission semantics.
func (l *Ledger) MigrateIn(rows []cac.MigratedCall) {
	for _, r := range rows {
		lt := l.upsertTrack(r.ID)
		lt.track = track{
			bu:         r.BU,
			pos:        r.Pos,
			headingDeg: r.HeadingDeg,
			speedMps:   r.SpeedMps,
			home:       r.Home,
		}
		lt.foot = l.footprint(lt.foot[:0], lt.track)
		l.apply(lt.foot, +1)
		l.migratedIn++
	}
}

// findTrack returns the position of call id in the ID-ordered track
// slice and whether it is tracked; an untracked id's position is where
// it would be inserted.
func (l *Ledger) findTrack(id int) (int, bool) {
	lo, hi := 0, len(l.tracks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.tracks[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(l.tracks) && l.tracks[lo].id == id
}

// upsertTrack returns the track of call id, inserting an empty one at
// its ID-ordered position if the call is untracked. A tracked call's
// cached footprint is retracted from the matrix first, so the caller
// only sets the new projection source and applies its footprint.
func (l *Ledger) upsertTrack(id int) *ledgerTrack {
	i, ok := l.findTrack(id)
	if ok {
		lt := l.tracks[i]
		l.apply(lt.foot, -1)
		return lt
	}
	lt := &ledgerTrack{id: id}
	l.tracks = append(l.tracks, nil)
	copy(l.tracks[i+1:], l.tracks[i:])
	l.tracks[i] = lt
	return lt
}

// ResetExchange implements cac.ExchangeResetter: it zeroes the ghost
// matrix and rewinds the export snapshot so the next ExportDemand
// carries the full absolute local demand matrix instead of a delta.
// The sharded engine calls it on every shard after a rebalance epoch —
// migrations moved demand between instances and interest sets may have
// changed, so the differential telescoping no longer matches what each
// receiver accumulated — and immediately runs a full exchange round
// inside the same tick barrier, rebuilding every ghost from absolute
// rows before any decision runs. Generation counters keep rising, so
// receivers' replay guards stay valid across the reset.
func (l *Ledger) ResetExchange() {
	for i := range l.ghost {
		l.ghost[i] = 0
	}
	for i := range l.demand {
		if l.exported != nil {
			l.exported[i] = 0
		}
		if l.demand[i] != 0 {
			l.markDirty(i)
		}
	}
}

// InterestRadiusCells implements cac.InterestScoped: the maximum hex
// distance from a decision's home cell to any cell that decision reads,
// derived from the configuration under Config.MaxSpeedKmh's workload
// promise (positions within one cell radius of the home centre, speeds
// bounded). It returns -1 when MaxSpeedKmh is 0 — no promise, no bound.
//
// Derivation (all distances from the home station's centre): a request
// or track position sits within rcell; the dead-reckoned projection at
// interval k travels at most vmax*Horizon*DeltaT further, so the
// projected point q is within drift = rcell + travel. The home centre
// is itself a station, so the nearest station to q is within drift too;
// a cell enters the shadow only with normalized mass >= MinProb, which
// forces its distance d from q to satisfy d^2 <= drift^2 +
// 2*sigma^2*ln(1/MinProb) with sigma = SigmaPosM + SpreadAlpha*travel
// (the out-of-coverage collapse case lands on the nearest station,
// also within that bound). Cells at hex distance n are at least
// 1.5*rcell*n apart centre-to-centre, so the hex radius covering
// drift + d rings every readable cell.
func (l *Ledger) InterestRadiusCells() int {
	if l.cfg.MaxSpeedKmh <= 0 {
		return -1
	}
	rcell := l.cfg.Network.Layout().CellRadius
	travel := geo.KmhToMps(l.cfg.MaxSpeedKmh) * float64(l.cfg.Horizon) * l.cfg.DeltaT
	sigma := l.cfg.SigmaPosM + l.cfg.SpreadAlpha*travel
	drift := rcell + travel
	reach := drift + math.Sqrt(drift*drift+2*sigma*sigma*math.Log(1/l.cfg.MinProb))
	return int(math.Ceil(reach / (1.5 * rcell)))
}

// ProjectedDemand returns the aggregated projected demand in BU for cell
// j at interval k — local tracks plus accumulated ghost demand — read
// from the incrementally maintained matrices for k <= Horizon and
// recomputed from scratch beyond it (ghost deltas never extend past the
// horizon, so the recompute path stays local-only). On a ledger without
// ghost input it equals the recompute Controller's ExpectedDemand.
func (l *Ledger) ProjectedDemand(j geo.Hex, k int) int {
	if k < 0 {
		k = 0
	}
	ci, ok := l.stationIndex(j)
	if !ok {
		return 0
	}
	if k > l.cfg.Horizon {
		return l.exactDemand(int(ci), k)
	}
	mi := int(ci)*(l.cfg.Horizon+1) + k
	return l.demand[mi] + l.ghost[mi]
}

// exactDemand is the oracle summation: aggregated demand for dense cell
// ci at interval k recomputed from every tracked call's cluster, equal
// to Controller.ExpectedDemand over the same tracks. Only
// ProjectedDemand beyond the horizon needs it.
func (l *Ledger) exactDemand(ci, k int) int {
	var sum int
	for _, lt := range l.tracks {
		l.trackCluster = l.cluster(l.trackCluster[:0], &lt.track, geo.UnitFromHeading(lt.headingDeg), k)
		for _, fc := range l.trackCluster {
			if int(fc.cell) == ci {
				sum += fc.amount
				break
			}
		}
	}
	return sum
}

// Decide implements cac.Controller with the recompute Controller's exact
// semantics: admit when, for every projection interval and every cell of
// the request's tentative shadow cluster, aggregated projected demand
// plus the request's own reservation stays within Threshold of the cell
// capacity. Each interval is projected once, with one HexAt; the
// request's cluster costs, per interval, a ring walk over the nearby
// stations and a table exp per candidate; aggregated demand is read
// from the matrix in O(1) and compared with the cell's integer limit.
// An accepted request's footprint is stashed for the OnAdmit that
// commits it, replacing any stash an earlier Decide or DecideBatchInto
// left.
func (l *Ledger) Decide(req cac.Request) (cac.Decision, error) {
	l.resetHandover()
	return l.decide(req)
}

// decide is Decide without the hand-over reset, so a batch stashes the
// footprints of all its accepted requests.
func (l *Ledger) decide(req cac.Request) (cac.Decision, error) {
	if err := req.Validate(); err != nil {
		return cac.Reject, err
	}
	if !req.Station.Fits(req.Call.BU) {
		return cac.Reject, nil
	}
	pos := req.Est.Pos
	speedMps := geo.KmhToMps(req.Est.SpeedKmh)
	tr := track{bu: req.Call.BU, pos: pos, headingDeg: req.Est.HeadingDeg, speedMps: speedMps}
	// One heading unit vector serves every projection of the decision,
	// and each interval is projected once: the coverage check, the
	// clusters and the stashed footprint all read the plan. projection's
	// point is geo.Move's bit for bit.
	unit := geo.UnitFromHeading(req.Est.HeadingDeg)
	plan := l.plan
	for k := range plan {
		l.project(&plan[k], &tr, unit, k)
	}
	if l.needHex {
		l.classStats.decideHexes += int64(len(plan))
	}
	if l.cfg.RequireClusterCoverage {
		// The station table answers Network.StationAt's question
		// without formatting its error.
		for k := 1; k < len(plan); k++ {
			if _, ok := l.stationIndex(plan[k].hex); !ok {
				return cac.Reject, nil
			}
		}
	}
	h := l.cfg.Horizon + 1
	// The request's footprint accumulates in handCells as it is read;
	// a reject truncates it away again.
	lo := len(l.handCells)
	for k := range plan {
		l.reqCluster = l.clusterAt(l.reqCluster[:0], &tr, &plan[k], k)
		for _, fc := range l.reqCluster {
			ci, own := int(fc.cell), fc.amount
			if own != 0 {
				l.handCells = append(l.handCells, fc)
			}
			mi := ci*h + k
			if l.demand[mi]+l.ghost[mi]+own > l.limits[ci] {
				l.handCells = l.handCells[:lo]
				return cac.Reject, nil
			}
		}
	}
	l.hand = append(l.hand, handover{
		id:         req.Call.ID,
		bu:         req.Call.BU,
		pos:        pos,
		headingDeg: req.Est.HeadingDeg,
		speedMps:   speedMps,
		lo:         lo,
		hi:         len(l.handCells),
	})
	return cac.Accept, nil
}

// resetHandover drops every stashed footprint.
func (l *Ledger) resetHandover() {
	l.hand = l.hand[:0]
	l.handCells = l.handCells[:0]
	l.handNext = 0
}

// takeHandover returns the footprint a decision since the last reset
// stashed for exactly this key, or nil. Commits follow their decisions'
// order, so the scan starts past the last adopted entry; entries it
// skips (accepted requests whose commit failed) are never revisited.
func (l *Ledger) takeHandover(id, bu int, pos geo.Point, headingDeg, speedMps float64) ([]footCell, bool) {
	for i := l.handNext; i < len(l.hand); i++ {
		if h := &l.hand[i]; h.matches(id, bu, pos, headingDeg, speedMps) {
			l.handNext = i + 1
			return l.handCells[h.lo:h.hi], true
		}
	}
	return nil, false
}

// DecideBatch implements cac.BatchController. The ledger keeps its
// scratch buffers and demand matrix on the controller, so per-request
// decisions are already the pure O(horizon x cluster-cells) read path;
// the method exists to declare batch capability to the pipeline, not
// to add amortisation beyond what Decide carries.
func (l *Ledger) DecideBatch(reqs []cac.Request) ([]cac.Decision, error) {
	out := make([]cac.Decision, len(reqs))
	if err := l.DecideBatchInto(reqs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideBatchInto implements cac.BatchIntoController: DecideBatch
// semantics into a caller-provided buffer, allocation-free (the decision
// path reads the matrix through controller-resident scratch). The
// footprints of every accepted request stay stashed for their OnAdmit
// commits until the next Decide or DecideBatchInto.
//
//facs:hotpath
func (l *Ledger) DecideBatchInto(reqs []cac.Request, out []cac.Decision) error {
	l.resetHandover()
	for i := range reqs {
		d, err := l.decide(reqs[i])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// OnAdmit implements cac.Observer: cache the call's footprint and apply
// it to the demand matrix. When a decision since the last reset accepted
// a request with the same call ID, bandwidth and kinematics, its stashed
// footprint is adopted instead of re-derived — a footprint is a pure
// function of that key, so either way the cached amounts are identical.
func (l *Ledger) OnAdmit(req cac.Request) {
	speedMps := geo.KmhToMps(req.Est.SpeedKmh)
	lt := l.upsertTrack(req.Call.ID)
	lt.track = track{
		bu:         req.Call.BU,
		pos:        req.Est.Pos,
		headingDeg: req.Est.HeadingDeg,
		speedMps:   speedMps,
		home:       req.Station.Hex(),
	}
	if cells, ok := l.takeHandover(req.Call.ID, req.Call.BU, req.Est.Pos, req.Est.HeadingDeg, speedMps); ok {
		lt.foot = append(lt.foot[:0], cells...)
	} else {
		lt.foot = l.footprint(lt.foot[:0], lt.track)
	}
	l.apply(lt.foot, +1)
}

// OnRelease implements cac.Observer: remove the call's footprint from
// the matrix and drop its track.
func (l *Ledger) OnRelease(callID int, _ *cell.BaseStation, _ float64) {
	i, ok := l.findTrack(callID)
	if !ok {
		return
	}
	l.apply(l.tracks[i].foot, -1)
	copy(l.tracks[i:], l.tracks[i+1:])
	l.tracks[len(l.tracks)-1] = nil
	l.tracks = l.tracks[:len(l.tracks)-1]
}

// OnStateUpdate implements cac.StateUpdater.
func (l *Ledger) OnStateUpdate(callID int, est gps.Estimate, station *cell.BaseStation) {
	l.UpdateState(callID, est.Pos, est.HeadingDeg, est.SpeedKmh, station.Hex())
}

// UpdateState refreshes the projection source of a tracked call in
// O(footprint): the stale footprint is removed from the matrix, the new
// one computed once and applied. Unknown calls are ignored.
func (l *Ledger) UpdateState(callID int, pos geo.Point, headingDeg, speedKmh float64, home geo.Hex) {
	i, ok := l.findTrack(callID)
	if !ok {
		return
	}
	lt := l.tracks[i]
	l.apply(lt.foot, -1)
	lt.pos = pos
	lt.headingDeg = headingDeg
	lt.speedMps = geo.KmhToMps(speedKmh)
	lt.home = home
	lt.foot = l.footprint(lt.foot[:0], lt.track)
	l.apply(lt.foot, +1)
}
