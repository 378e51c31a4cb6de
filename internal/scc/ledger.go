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

// boundaryGuardBU is the absolute demand margin (in BU) within which the
// ledger distrusts its incrementally maintained matrix and sums the
// exact aggregated demand for the one (cell, interval) under test from
// the cached footprints. The matrix drifts from the from-scratch sum
// only by floating-point cancellation of add/remove pairs — well below
// 1e-9 BU between rebuilds (see DESIGN.md) — so any query landing
// outside this band provably sits on the same side of the survivability
// threshold as the oracle's, and any query inside it is answered with
// the oracle's own sum (footprintDemand). The golden-equivalence suite
// pins the result: ledger decisions are byte-identical to the recompute
// Controller's.
const boundaryGuardBU = 1e-6

// rebuildOpsBudget bounds how many incremental footprint applications may
// accumulate before the ledger re-aggregates its matrix from the cached
// footprints, resetting floating-point drift to zero. Rebuild costs
// O(active x footprint); the budget keeps its amortised cost negligible
// while keeping worst-case drift orders of magnitude below
// boundaryGuardBU.
const rebuildOpsBudget = 1 << 20

// footCell is one cached shadow-cluster contribution of a tracked call:
// `amount` BU of projected demand in dense cell `cell` at interval `k`.
// A footprint lists its cells in ascending (k, cell) order — intervals
// outermost, shadows in station order — which footAmount's binary search
// relies on.
type footCell struct {
	cell   int32
	k      int32
	amount float64
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
// The one shadow a decision derives, the request's own, comes from
// cluster (ledger_shadow.go). Under ReservationWeighted it is a pruned
// routine (shadow): a bound pass over the stations without Hypot or Exp
// finds those whose weight is below half an ulp of the running
// normalising sum, and only the rest are evaluated. Under
// ReservationFull a hex-ring walk certifies each nearby station's class
// (none, check-only, reserve) instead, and the pruned routine answers
// only when a class is uncertain. Either way the cells and amounts are
// appendShadow's bit for bit, so footprints derived on a commit miss, a
// handoff or a migration are the oracle's too.
//
// Decisions are byte-identical to the recompute Controller's: the demand
// matrix can differ from the from-scratch sum only by floating-point
// cancellation noise, and any query within boundaryGuardBU of the
// survivability threshold falls back to summing the cached footprints in
// ascending call-ID order — the amounts and order of the Controller's
// own summation, so the fallback value is the oracle's bit for bit.
// Under ReservationFull every amount is a whole number of BU, the
// matrix is exact, and the fallback is skipped.
// OnTick periodically re-aggregates the matrix from the cached
// footprints, resetting accumulated drift to zero.
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
// cac.StateUpdater, cac.Ticker and cac.DemandExchanger. It is not safe
// for concurrent use; the simulation kernel is single-threaded, and a
// serve.Core owning the ledger is serialized by its owner (a Service's
// or a shard's lock).
type Ledger struct {
	cfg      Config
	stations []*cell.BaseStation
	limits   []float64 // Threshold x capacity, per dense cell index
	// demand is the dense matrix: demand[c*(Horizon+1)+k] is the
	// aggregated projected demand of cell c at interval k, over the calls
	// THIS instance tracks.
	demand []float64
	// ghost mirrors demand for remote instances: ghost[c*(Horizon+1)+k]
	// accumulates the deltas sibling shards exported via ApplyGhost.
	// Decide reads demand+ghost; rebuilds and the guard-band fallback
	// sum local rows only — ghost rows are taken as-is (the remote
	// exporter rebuilt them before exporting, see ExportDemand).
	ghost []float64
	// tracks holds every tracked call in ascending call-ID order — the
	// oracle's summation order — and is searched by ID (findTrack).
	tracks []*ledgerTrack
	ops    int // incremental applications since the last rebuild

	// exported snapshots demand at the last ExportDemand (allocated on
	// first export); exportGen counts exports, ghostGens the last applied
	// generation per source shard.
	exported  []float64
	exportGen uint64
	ghostGens map[int]uint64

	// dirty makes ExportDemand scale with the entries touched since the
	// last export rather than the matrix size: every demand write (apply,
	// or a value Rebuild shifted while cancelling drift) sets the bit of
	// its dense index, and ExportDemand walks the set bits in ascending
	// index order (== cell-major row order), clearing them as it goes.
	dirty []uint64
	// rowsBuf backs the exported DemandDelta.Rows; see ExportDemand for
	// the aliasing contract.
	rowsBuf []DemandRow
	// rebuildOld snapshots the matrix across a Rebuild so shifted
	// entries can be diff-marked dirty.
	rebuildOld []float64

	fallbacks    int64
	rebuilds     int64
	exports      int64
	ghostApplies int64
	ghostRows    int64
	migratedOut  int64
	migratedIn   int64

	// Per-network tables of the pruned shadow (ledger_shadow.go), built
	// once: station positions in dense index order, survival(k) for
	// k <= Horizon, the margin M and the anchor margin M + ln(n+1) plus
	// slack. A weight e^-M below an evaluated one is absorbed by the
	// normalising sum, and M ≥ ln(1/MinProb)+2 keeps its probability
	// under MinProb, so appendShadow would not emit it either. A station
	// beyond shadowMaxCoord leaves the bounds unproven; the margins are
	// then infinite and nothing is skipped.
	stationPos   []geo.Point
	surv         []float64
	margin       float64
	anchorMargin float64

	// Tables of the station lookup and of the full-reservation class
	// shadow (ledger_shadow.go), built once. hexIdx maps axial
	// coordinates (Q-hexQ0, R-hexR0) over the stations' bounding box
	// padded by span, hexW wide and hexH high, to a dense station index
	// (-1 for none); every hex lookup of the ledger goes through it
	// (stationIndex), the coverage check and the class shadow's ring
	// walk included. spiralStep lists the hex offsets out to span, the
	// largest hex distance between two stations, ring by ring, as steps
	// in hexIdx, and ringD2[j] is the least squared distance, shrunk by
	// the slack, from a point within one cell radius of a station to the
	// stations j rings away. classes enables the class shadow (ReservationFull with
	// T = classNats below margin); exp is its table exp, classRel the
	// relative slack of its weight and sum bounds and classTail bounds
	// e^-T from above. needHex says whether projections carry their hex
	// (the coverage check or the class shadow reads it).
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
	// trackCluster a tracked call's cluster in exactDemand, shadowBuf the
	// exact shadow behind a cluster; weights, bound and evaluated hold
	// the exact shadow's per-station weights and bound exponents and its
	// evaluated indices, and the class shadow's visited stations and
	// candidates with their exponents and weights side by side; collapse
	// receives appendShadow's out-of-coverage collapse.
	weights      []float64
	bound        []float64
	evaluated    []int32
	plan         []interval
	reqCluster   []footCell
	trackCluster []footCell
	shadowBuf    []shadowCell
	collapse     []CellProb

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
		limits:     make([]float64, len(stations)),
		demand:     make([]float64, len(stations)*(cfg.Horizon+1)),
		ghost:      make([]float64, len(stations)*(cfg.Horizon+1)),
		ghostGens:  make(map[int]uint64),
		stationPos: make([]geo.Point, len(stations)),
		surv:       make([]float64, cfg.Horizon+1),
		weights:    make([]float64, len(stations)),
		bound:      make([]float64, len(stations)),
		evaluated:  make([]int32, len(stations)),
		plan:       make([]interval, cfg.Horizon+1),
		margin:     math.Max(shadowMinMargin, math.Log(1/cfg.MinProb)+2),
	}
	l.dirty = make([]uint64, (len(l.demand)+63)/64)
	for i, bs := range stations {
		l.limits[i] = cfg.Threshold * float64(bs.Capacity())
		p := bs.Pos()
		l.stationPos[i] = p
		if !(math.Abs(p.X) <= shadowMaxCoord && math.Abs(p.Y) <= shadowMaxCoord) {
			l.margin = math.Inf(1)
		}
	}
	for k := range l.surv {
		l.surv[k] = survival(&l.cfg, k)
	}
	l.anchorMargin = l.margin + math.Log(float64(len(stations)+1)) + 2*shadowSlack
	l.buildHexTables()
	l.classNats = math.Max(shadowClassNats, math.Log(1/cfg.MinProb)+2)
	l.classes = cfg.Reservation == ReservationFull && l.classNats < l.margin && !math.IsInf(l.margin, 1)
	l.needHex = l.classes || cfg.RequireClusterCoverage
	// Twice the widest e-vs-x slack below shadowCapNats, twice the
	// reference's and the table's exp errors, and four roundings per
	// station plus a few: more than every rounding of the reference's
	// sum and of the bounds' own arithmetic.
	l.classRel = 2*shadowSlack*(shadowCapNats+2) + 2*shadowExpErr + 2*tableExpErr + 4*float64(len(stations)+4)*0x1p-53
	l.classTail = math.Exp(-l.classNats) * (1 + 4*shadowExpErr)
	// A candidate's relative exponent is under classNats plus 2e-6.
	l.exp = newClassExp(l.classNats + 1)
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

// Stats reports how many near-threshold queries fell back to the exact
// oracle-order footprint sum and how many full matrix rebuilds have run;
// see Snapshot for the full counter set.
func (l *Ledger) Stats() (exactFallbacks, rebuilds int64) {
	return l.fallbacks, l.rebuilds
}

// LedgerStats is a point-in-time snapshot of one ledger's internal
// counters — the observability surface for ledgers running behind a
// serve.Service or a shard.Engine shard lock, where the instance
// itself is only reachable through a serialized Do call.
type LedgerStats struct {
	// ActiveCalls is the number of calls currently projecting shadows.
	ActiveCalls int
	// ExactFallbacks counts near-threshold queries answered by the
	// exact oracle-order footprint sum instead of the incrementally
	// maintained matrix — the guard band actually firing.
	ExactFallbacks int64
	// Rebuilds counts full matrix re-aggregations: tick rolls and ops
	// budget exhaustion under ReservationWeighted, explicit Rebuild
	// calls in either mode. Under ReservationFull the matrix is exact, so
	// ticks and the budget never rebuild it.
	Rebuilds int64
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
	// ClassShadows counts the clusters the full-reservation class shadow
	// was asked for, ExactShadows the clusters the exact shadow derived
	// (the class shadow's fallbacks, and every cluster under
	// ReservationWeighted). Visited counts the stations whose bound
	// exponent those clusters computed, Exps the station weights they
	// evaluated: by the table exp in class shadows, by math.Exp in
	// exact ones.
	ClassShadows, ExactShadows, Visited, Exps int64
}

// Add returns the field-wise aggregation of two snapshots (counters and
// active calls sum; Generation takes the maximum), used to combine the
// per-shard ledgers of a sharded engine into one summary.
func (s LedgerStats) Add(o LedgerStats) LedgerStats {
	s.ActiveCalls += o.ActiveCalls
	s.ExactFallbacks += o.ExactFallbacks
	s.Rebuilds += o.Rebuilds
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
	return fmt.Sprintf("scc-ledger: %d active, %d guard-band fallbacks, %d rebuilds, %d exports, %d ghost applies (%d rows), %d migrated out, %d migrated in, %d class shadows, %d exact shadows, %d stations visited, %d weights evaluated",
		s.ActiveCalls, s.ExactFallbacks, s.Rebuilds, s.Exports, s.GhostApplies, s.GhostRows, s.MigratedOut, s.MigratedIn,
		s.ClassShadows, s.ExactShadows, s.Visited, s.Exps)
}

// Snapshot returns the current counter set. Call it from the decision
// loop that owns the ledger (e.g. via shard.Engine.Do); the ledger
// itself is not concurrency-safe.
func (l *Ledger) Snapshot() LedgerStats {
	return LedgerStats{
		ActiveCalls:    len(l.tracks),
		ExactFallbacks: l.fallbacks,
		Rebuilds:       l.rebuilds,
		Exports:        l.exports,
		Generation:     l.exportGen,
		GhostApplies:   l.ghostApplies,
		GhostRows:      l.ghostRows,
		MigratedOut:    l.migratedOut,
		MigratedIn:     l.migratedIn,
		ClassShadows:   l.classStats.shadows,
		ExactShadows:   l.classStats.pruned,
		Visited:        l.classStats.visited,
		Exps:           l.classStats.exps,
	}
}

// footprint computes the shadow-cluster footprint of one track: its
// reserved demand per (cell, interval) over the projection horizon,
// appended to dst. Zero reservations are skipped — adding 0 to a matrix
// entry is an exact no-op, so the applied matrix stays bitwise equal to
// the sum over non-zero contributions.
func (l *Ledger) footprint(dst []footCell, tr track) []footCell {
	unit := geo.UnitFromHeading(tr.headingDeg)
	for k := 0; k <= l.cfg.Horizon; k++ {
		start := len(dst)
		dst = l.cluster(dst, &tr, unit, k, l.surv[k])
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
// It must never rebuild: callers invoke it while the track set is
// mid-mutation (a removal's footprint still registered in active), and
// a rebuild from that state would resurrect the footprint being
// removed. Mutators call maybeRebuild once their state is consistent.
func (l *Ledger) apply(foot []footCell, sign float64) {
	h := l.cfg.Horizon + 1
	for _, fc := range foot {
		mi := int(fc.cell)*h + int(fc.k)
		l.demand[mi] += sign * fc.amount
		l.markDirty(mi)
	}
	l.ops += len(foot)
}

// markDirty marks dense matrix index mi for the next ExportDemand scan.
func (l *Ledger) markDirty(mi int) {
	l.dirty[mi>>6] |= 1 << (mi & 63)
}

// maybeRebuild resets floating-point drift once the incremental ops
// budget is spent. Only call it with active/ids/footprints consistent.
// Under ReservationFull the matrix carries no drift (see driftFree).
func (l *Ledger) maybeRebuild() {
	if l.ops >= rebuildOpsBudget && !l.driftFree() {
		l.Rebuild()
	}
}

// driftFree reports whether every local matrix entry is exactly the sum
// its footprints make in the oracle's order, so Rebuild would rewrite
// each entry with itself. Under ReservationFull every amount is a whole
// number of BU, and every incremental add, remove and rebuild of such
// sums is exact (see DESIGN.md, "No band in ReservationFull mode").
func (l *Ledger) driftFree() bool {
	return l.cfg.Reservation == ReservationFull
}

// Rebuild re-aggregates the demand matrix from the cached footprints in
// ascending call-ID order — the same summation order the recompute
// Controller uses — resetting accumulated floating-point drift to zero.
func (l *Ledger) Rebuild() {
	if cap(l.rebuildOld) < len(l.demand) {
		l.rebuildOld = make([]float64, len(l.demand))
	}
	old := l.rebuildOld[:len(l.demand)]
	copy(old, l.demand)
	for i := range l.demand {
		l.demand[i] = 0
	}
	h := l.cfg.Horizon + 1
	for _, lt := range l.tracks {
		for _, fc := range lt.foot {
			l.demand[int(fc.cell)*h+int(fc.k)] += fc.amount
		}
	}
	// Drift cancellation can shift entries whose footprints never went
	// through apply since the last export; diff-mark those so the sparse
	// export still sees every change.
	for i := range l.demand {
		if l.demand[i] != old[i] {
			l.markDirty(i)
		}
	}
	l.ops = 0
	l.rebuilds++
}

// OnTick implements cac.Ticker: the periodic time advance rolls the
// ledger forward by re-aggregating the matrix from the cached
// footprints, cancelling the floating-point drift incremental updates
// accumulate. (Projections themselves are anchored to each call's last
// observed kinematics, exactly like the recompute Controller's, so a
// tick changes no decision — only the matrix's error term.) Ticks with
// no incremental updates since the last rebuild are free, and so is
// every tick under ReservationFull (driftFree): either way the matrix
// is already bitwise equal to the footprint sum.
func (l *Ledger) OnTick(now float64) {
	if l.ops == 0 || l.driftFree() {
		return
	}
	l.Rebuild()
}

// ExportDemand implements cac.DemandExchanger: it returns the change of
// this ledger's OWN demand matrix (local tracks only — never the ghost
// matrix, which would echo other shards' demand back at them) since the
// previous export, as (cell, interval) rows in deterministic cell-major
// order, and advances the generation counter.
//
// The sharded engine calls it inside the Tick barrier, after OnTick has
// re-aggregated a weighted matrix from the cached footprints (a
// full-reservation matrix is exact already), so exported aggregates
// carry no incremental floating-point drift. Receivers
// accumulate the deltas; because consecutive exports telescope
// (each row is the exact difference of two matrix states), a receiver's
// accumulated ghost tracks this ledger's matrix up to the rounding of
// its own additions — orders of magnitude below boundaryGuardBU, and
// exactly zero in ReservationFull mode where every aggregate is a sum
// of whole bandwidth units.
//
// The scan is sparse: only entries touched since the previous export
// (marked by apply and Rebuild in a bitset) are visited, so an export
// costs O(touched rows) plus one word test per 64 entries, and needs no
// sort. The returned Rows slice aliases a buffer the ledger reuses — it is valid until the next
// ExportDemand call, matching the exchange barrier's lifecycle (every
// receiver applies the delta before the next tick's export).
//
//facs:hotpath
func (l *Ledger) ExportDemand() DemandDelta {
	if l.exported == nil {
		l.exported = make([]float64, len(l.demand)) //facs:alloc one-time lazy init; amortized to zero at steady state
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
func (l *Ledger) GhostDemand(j geo.Hex, k int) float64 {
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
	l.maybeRebuild()
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
	l.maybeRebuild()
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
// ghost input it mirrors the recompute Controller's ExpectedDemand up
// to floating-point drift (bitwise equal right after a rebuild).
func (l *Ledger) ProjectedDemand(j geo.Hex, k int) float64 {
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
// ci at interval k recomputed from every tracked call in ascending call-ID
// order, bit-identical to Controller.ExpectedDemand over the same
// tracks (the pruned shadow is appendShadow's bit for bit). Only
// ProjectedDemand beyond the horizon needs it; within the horizon
// footprintDemand reads the same amounts from the cache.
func (l *Ledger) exactDemand(ci, k int) float64 {
	surv := survival(&l.cfg, k)
	var sum float64
	for _, lt := range l.tracks {
		l.trackCluster = l.cluster(l.trackCluster[:0], &lt.track, geo.UnitFromHeading(lt.headingDeg), k, surv)
		for _, fc := range l.trackCluster {
			if int(fc.cell) == ci {
				sum += fc.amount
				break
			}
		}
	}
	return sum
}

// footprintDemand is the guard-band fallback: the aggregated local
// demand of dense cell ci at interval k, summed from the cached
// footprints in ascending call-ID order. Each cached amount is the
// reserve() value exactDemand derives for that track and (cell, k)
// (DESIGN.md invariant 2), a track without an entry contributes an
// exact zero, and the order is the oracle's — so the sum is
// exactDemand's bit for bit, at O(active x log footprint) instead of
// O(active x stations) exponentials.
func (l *Ledger) footprintDemand(ci, k int) float64 {
	var sum float64
	for _, lt := range l.tracks {
		sum += footAmount(lt.foot, int32(ci), int32(k))
	}
	return sum
}

// footAmount binary-searches a (k, cell)-ordered footprint for the
// amount it reserves in cell at interval k, 0 if none.
func footAmount(foot []footCell, cell, k int32) float64 {
	lo, hi := 0, len(foot)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fc := foot[m]; fc.k < k || (fc.k == k && fc.cell < cell) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(foot) && foot[lo].k == k && foot[lo].cell == cell {
		return foot[lo].amount
	}
	return 0
}

// Decide implements cac.Controller with the recompute Controller's exact
// semantics: admit when, for every projection interval and every cell of
// the request's tentative shadow cluster, aggregated projected demand
// plus the request's own reservation stays within Threshold of the cell
// capacity. Each interval is projected once, with one HexAt; the
// request's cluster costs, per interval, a ring walk over the nearby
// stations and a table exp per candidate (ReservationFull) or one
// O(stations) bound pass plus an exp per station that can change the
// normalising sum (ReservationWeighted); aggregated demand is read from
// the matrix in O(1); ReservationWeighted queries within
// boundaryGuardBU of a threshold are answered from the cached footprints
// in the oracle's summation order (footprintDemand). An accepted
// request's footprint is stashed for the OnAdmit that commits it,
// replacing any stash an earlier Decide or DecideBatchInto left.
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
		l.reqCluster = l.clusterAt(l.reqCluster[:0], &tr, &plan[k], k, l.surv[k])
		for _, fc := range l.reqCluster {
			ci, own := int(fc.cell), fc.amount
			if own != 0 {
				l.handCells = append(l.handCells, fc)
			}
			mi := ci*h + k
			projected := l.demand[mi] + l.ghost[mi] + own
			limit := l.limits[ci]
			// In ReservationFull mode every local entry is a sum of
			// whole BU, exact and equal to the footprint sum, so the
			// band cannot change a decision there and is skipped.
			if d := projected - limit; d <= boundaryGuardBU && d >= -boundaryGuardBU && !l.driftFree() {
				// Too close to the threshold for matrix drift to be
				// provably irrelevant: take the LOCAL rows from the
				// oracle-order footprint sum. Ghost rows are taken as-is
				// — remote aggregates were rebuilt by their exporter
				// before the exchange, so the only residual is the
				// receiver-side accumulation rounding documented on
				// ExportDemand.
				projected = l.footprintDemand(ci, k) + l.ghost[mi] + own
				l.fallbacks++
			}
			if projected > limit {
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
	l.maybeRebuild()
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
	l.maybeRebuild()
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
	l.maybeRebuild()
}
