package scc

import (
	"math"

	"facs/internal/geo"
)

// Constants of the Ledger's class shadow. DESIGN.md ("Shadow classes")
// carries the proof they serve.
const (
	// shadowSlack brackets a station's exact exponent x = d·d·inv (d from
	// math.Hypot, as appendShadow computes it) by its bound exponent
	// e = (dx²+dy²)·inv: x lies in [e·(1−slack)−slack, e·(1+slack)+slack].
	// The two differ by a few ulps plus the underflow of tiny squares, so
	// 1e-9 is generous.
	shadowSlack = 1e-9
	// shadowCapNats caps the exponents the class shadow measures
	// against, so every reference weight it bounds is at least e^-700,
	// a normal float next to which any subnormal weight is negligible.
	shadowCapNats = 700
	// shadowMaxCoord bounds the coordinates of the projected point and
	// the stations, and inv, below which every bound is finite:
	// (2·(2e100)²)·1e100 < MaxFloat64.
	shadowMaxCoord = 1e100
	// shadowExpErr bounds math.Exp's relative error where its result is
	// normal. Go documents less than one ulp (about 1.1e-16); the class
	// shadow assumes no more than this generous 1e-12 for the reference's
	// weights and the knots of its table exp.
	shadowExpErr = 1e-12
	// tableExpErr bounds classExp's relative error on [0, its table end]:
	// the polynomial's truncation, under (1/64)^5/120 < 7.9e-12 relative,
	// plus the knot's shadowExpErr and a few roundings.
	tableExpErr = 1e-11
	// shadowClassNats is the least truncation T, in nats, of the
	// full-reservation class shadow: a station whose exponent exceeds
	// the nearest one's by more than T is classed without evaluating its
	// weight. T also covers ln(1/MinProb)+2 (see NewLedger).
	shadowClassNats = 12
)

// classStats counts the work behind the Ledger's clusters: the
// clusters the class shadow was asked for and those it handed to the
// reference appendShadow, the stations whose distance was computed and
// the weights evaluated over every cluster (by classExp in the class
// shadow, by math.Exp at every station in the reference), and the HexAt
// calls decide made.
type classStats struct {
	shadows, exact, visited, exps, decideHexes int64
}

// interval is one projection interval of a mobile: the dead-reckoned
// point q, the scale inv = 1/(2σ²) of its shadow there and, when a
// reader needs it, the hex holding q. decide derives a request's
// intervals once and its coverage check, class shadows and stashed
// footprint all read them.
type interval struct {
	q   geo.Point
	inv float64
	hex geo.Hex
}

// project sets iv to the interval k of the call tr describes; unit
// must be geo.UnitFromHeading(tr.headingDeg). The hex is HexAt(q) when
// the coverage check or the class shadow reads it, and zero otherwise.
func (l *Ledger) project(iv *interval, tr *track, unit geo.Vector, k int) {
	iv.q, iv.inv = projection(&l.cfg, tr.pos, unit, tr.speedMps, k)
	iv.hex = geo.Hex{}
	if l.needHex {
		iv.hex = l.layout.HexAt(iv.q)
	}
}

// classExp is the class shadow's exp(−x) on [0, its table end]: the knot
// exp(−j/64) below x times a degree-4 Taylor polynomial in the remainder
// f = x − j/64 ∈ [0, 1/64). Its relative error stays under tableExpErr,
// and at(0) is exactly 1. NewLedger builds the knots once.
type classExp []float64

// newClassExp tabulates the knots for arguments up to at least maxX.
func newClassExp(maxX float64) classExp {
	t := make(classExp, int(maxX*64)+2)
	for j := range t {
		t[j] = math.Exp(-float64(j) / 64)
	}
	return t
}

// at returns exp(−x) for 0 ≤ x below the table end. Both x·64 and
// j/64 are exact, and so is f (x and j/64 lie within a factor of two).
func (t classExp) at(x float64) float64 {
	j := int(x * 64)
	f := x - float64(j)*(1.0/64)
	return t[j] * (1 - f*(1-f*(0.5-f*(1.0/6-f*(1.0/24)))))
}

// cluster appends to dst a mobile's shadow cluster at projection
// interval k for the call tr describes: one footCell per station
// appendShadow emits, in station order, carrying the amount reserve()
// derives from the station's probability (zero included). unit must be
// geo.UnitFromHeading(tr.headingDeg).
func (l *Ledger) cluster(dst []footCell, tr *track, unit geo.Vector, k int) []footCell {
	var iv interval
	l.project(&iv, tr, unit, k)
	return l.clusterAt(dst, tr, &iv, k)
}

// clusterAt is cluster at the projected interval iv. The class shadow
// answers when it can certify every station's class; otherwise the
// reference appendShadow supplies the probabilities, visiting and
// weighing every station.
func (l *Ledger) clusterAt(dst []footCell, tr *track, iv *interval, k int) []footCell {
	l.classStats.shadows++
	if out, ok := l.classShadow(dst, tr.bu, iv, k); ok {
		return out
	}
	l.classStats.exact++
	l.classStats.visited += int64(len(l.stations))
	l.classStats.exps += int64(len(l.stations))
	l.shadowBuf = appendShadow(&l.cfg, l.stations, l.weights, l.shadowBuf[:0], tr.pos, tr.headingDeg, tr.speedMps, k)
	for _, cp := range l.shadowBuf {
		ci, _ := l.stationIndex(cp.Hex)
		dst = append(dst, footCell{cell: ci, k: int32(k), amount: reserve(&l.cfg, tr.bu, cp.Prob)})
	}
	return dst
}

// classShadow is clusterAt without probabilities. A station's demand
// depends only on its class:
// none (p below MinProb), check-only (emitted, p below InclusionProb,
// amount 0) or reserve (amount bu). A ring walk from the projected
// point's hex visits only the stations that can lie within T nats of
// the nearest one; the rest are provably below MinProb. Each nearby
// weight is evaluated once, relative to the nearest station's (which is
// exactly 1), through the table exp, widened into an interval holding
// appendShadow's weight over the same scale, and the normalising sum is
// bracketed likewise, with the unvisited stations' mass as a tail term.
// When a station's probability interval straddles a threshold, or the
// walk's preconditions fail, classShadow reports false and leaves dst as
// it was. DESIGN.md ("Shadow classes") carries the proof.
func (l *Ledger) classShadow(dst []footCell, bu int, iv *interval, k int) ([]footCell, bool) {
	q, inv := iv.q, iv.inv
	if !l.classes || !(math.Abs(q.X) <= shadowMaxCoord && math.Abs(q.Y) <= shadowMaxCoord && inv <= shadowMaxCoord) {
		return dst, false
	}
	c, ok := l.stationIndex(iv.hex)
	if !ok {
		return dst, false
	}
	pts := l.stationPos
	dx, dy := q.X-pts[c].X, q.Y-pts[c].Y
	d2 := dx*dx + dy*dy
	e0 := d2 * inv
	// cut bounds T nats past the ring-0 station's exact exponent; it
	// must stay within shadowCapNats so every reference weight it is
	// measured against is normal. The ring bound below needs q within
	// one cell radius of its hex's station.
	cut := e0*(1+shadowSlack) + shadowSlack + l.classNats
	if d2 > l.layout.CellRadius*l.layout.CellRadius || !(cut <= shadowCapNats) {
		return dst, false
	}
	// vis lists the visited stations and bound their bound exponents,
	// side by side.
	vis, bound := l.evaluated[:1], l.bound[:1]
	vis[0], bound[0] = c, e0
	emin := e0
	// Every hex within span of a station has a slot in the padded table.
	slot := l.hexSlot(iv.hex)
	for j := 1; j <= l.span; j++ {
		// A station j rings from h lies at least 1.5·j·r from h's
		// centre, hence at least (1.5·j−1)·r from q; once that distance
		// puts the ring past cut, so does every later ring. ringD2[j]
		// is that distance squared, shrunk by the slack.
		if l.ringD2[j]*inv*(1-2*shadowSlack)-shadowSlack > cut {
			break
		}
		for _, step := range l.spiralStep[geo.SpiralLen(j-1):geo.SpiralLen(j)] {
			i := l.hexIdx[slot+step]
			if i < 0 {
				continue
			}
			dx, dy := q.X-pts[i].X, q.Y-pts[i].Y
			e := (dx*dx + dy*dy) * inv
			vis = append(vis, i)
			bound = append(bound, e)
			if e < emin {
				emin = e
			}
		}
	}
	l.classStats.visited += int64(len(vis))
	// Candidates: the visited stations whose exponent can lie within T
	// nats of the nearest one's, each weighed relative to it:
	// r = exp(−(e − emin)), exactly 1 for the nearest. vis is compacted
	// in place, with the weights side by side.
	limit := emin*(1+shadowSlack) + shadowSlack + l.classNats
	cands, weights := vis[:0], l.weights[:0]
	var sum float64
	for n, i := range vis {
		e := bound[n]
		if e*(1-shadowSlack)-shadowSlack > limit {
			continue
		}
		r := l.exp.at(e - emin)
		sum += r
		cands = append(cands, i)
		weights = append(weights, r)
	}
	l.classStats.exps += int64(len(cands))
	// Every other station weighs at most classTail relative to the
	// nearest one, so the reference's normalising sum, over the same
	// scale, lies in [lo, hi]; a candidate's probability lies in
	// [r·fhi, r·flo].
	rel := l.classRel
	lo := sum * (1 - rel)
	hi := (sum + float64(len(pts)-len(cands))*l.classTail) * (1 + rel)
	fhi, flo := (1-rel)/hi, (1+rel)/lo
	minProb, inclusion := l.cfg.MinProb, l.cfg.InclusionProb
	start := len(dst)
	for n, i := range cands {
		r := weights[n]
		plo, phi := r*fhi, r*flo
		if phi < minProb {
			continue
		}
		amount := bu
		switch {
		case plo < minProb:
			return dst[:start], false
		case phi < inclusion:
			amount = 0
		case plo < inclusion:
			return dst[:start], false
		}
		// Insert in station order, the reference's emission order.
		dst = append(dst, footCell{})
		at := len(dst) - 1
		for ; at > start && dst[at-1].cell > i; at-- {
			dst[at] = dst[at-1]
		}
		dst[at] = footCell{cell: i, k: int32(k), amount: amount}
	}
	return dst, true
}
