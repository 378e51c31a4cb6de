package scc

import (
	"math"

	"facs/internal/geo"
)

// Constants of the Ledger's pruned shadow. DESIGN.md ("The request's own
// shadow") carries the proof they serve.
const (
	// shadowSlack brackets a station's exact exponent x = d·d·inv (d from
	// math.Hypot, as appendShadow computes it) by its bound exponent
	// e = (dx²+dy²)·inv: x lies in [e·(1−slack)−slack, e·(1+slack)+slack].
	// The two differ by a few ulps plus the underflow of tiny squares, so
	// 1e-9 is generous.
	shadowSlack = 1e-9
	// shadowMinMargin is the least margin M, in nats, by which a skipped
	// station's exponent exceeds an evaluated one's: e^-40 < 2^-57.
	shadowMinMargin = 40
	// shadowCapNats caps the exponent up to which stations are skipped,
	// so every weight a skip is measured against is at least e^-660 —
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
// exact shadow, the clusters the exact shadow derived (those fallbacks,
// or every cluster without the class shadow), the stations whose bound
// exponent was computed and the weights evaluated over every cluster
// (by classExp in the class shadow, by math.Exp in the exact one), and
// the HexAt calls decide made.
type classStats struct {
	shadows, exact, pruned, visited, exps, decideHexes int64
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

// shadowCell is one entry of a Ledger shadow: appendShadow's CellProb
// with the station's dense index in place of its hex.
type shadowCell struct {
	ci   int32
	prob float64
}

// shadow appends to dst the shadow of the call tr describes at its
// projected interval iv, number k: the entries appendShadow emits for
// the same kinematics, in the same station order and with bitwise the
// same probabilities, each carrying its dense station index.
//
// Unlike appendShadow it evaluates math.Exp only for stations whose
// weight can change the normalising sum. A bound pass computes every
// station's exponent without Hypot or Exp. The stations ahead of the
// anchor — the last station whose bound lies at least M + ln(n+1) nats
// below every earlier station's — weigh less in total than half an ulp
// of the anchor's weight, so the reference sum equals that weight once
// the anchor is added. From the anchor on, a station whose bound exceeds
// the smallest exact exponent evaluated so far by more than M weighs less
// than half an ulp of the running sum, which adding it leaves unchanged.
// Every other station is evaluated exactly as appendShadow does it.
// When every weight underflows (total == 0) appendShadow itself supplies
// the nearest-station collapse.
func (l *Ledger) shadow(dst []shadowCell, tr *track, iv *interval, k int) []shadowCell {
	q, inv := iv.q, iv.inv
	pts := l.stationPos
	bound := l.bound[:len(pts)]
	// With the projected point, the stations and inv all within
	// shadowMaxCoord, every bound is finite; otherwise (or on NaN)
	// nothing is skipped.
	prune := math.Abs(q.X) <= shadowMaxCoord && math.Abs(q.Y) <= shadowMaxCoord && inv <= shadowMaxCoord
	// Bound pass. anchorCap is the minimum of shadowCapNats and every
	// earlier station's lower bound; only a new minimum can fit under it.
	anchor := 0
	emin, anchorCap := math.Inf(1), float64(shadowCapNats)
	for i, p := range pts {
		dx, dy := q.X-p.X, q.Y-p.Y
		e := (dx*dx + dy*dy) * inv
		bound[i] = e
		if e < emin {
			if e*(1+shadowSlack)+l.anchorMargin <= anchorCap {
				anchor = i
			}
			emin = e
			anchorCap = min(anchorCap, e*(1-shadowSlack))
		}
	}
	if !prune {
		anchor = 0
	}

	weights := l.weights
	evaluated := l.evaluated[:len(pts)]
	n := 0
	var total float64
	xmin, skipAbove := math.Inf(1), math.Inf(1)
	for i := anchor; i < len(pts); i++ {
		if bound[i]*(1-shadowSlack) > skipAbove {
			continue
		}
		d := q.DistanceTo(pts[i])
		nx := -d * d * inv
		w := math.Exp(nx)
		weights[i] = w
		total += w
		evaluated[n] = int32(i)
		n++
		if x := -nx; x < xmin {
			xmin = x
			if t := x + l.margin + shadowSlack; prune && t <= shadowCapNats {
				skipAbove = t
			}
		}
	}
	evaluated = evaluated[:n]
	l.evaluated = evaluated
	if total == 0 {
		l.collapse = appendShadow(&l.cfg, l.stations, l.weights, l.collapse[:0], tr.pos, tr.headingDeg, tr.speedMps, k)
		for _, cp := range l.collapse {
			ci, _ := l.stationIndex(cp.Hex)
			dst = append(dst, shadowCell{ci: ci, prob: cp.Prob})
		}
		return dst
	}
	for _, i := range evaluated {
		if p := weights[i] / total; p >= l.cfg.MinProb {
			dst = append(dst, shadowCell{ci: i, prob: p})
		}
	}
	return dst
}

// cluster appends to dst a mobile's shadow cluster at projection
// interval k for the call tr describes: one footCell per station
// appendShadow emits, in station order, carrying the demand reserve()
// derives from the station's probability and surv (zero included).
// unit must be geo.UnitFromHeading(tr.headingDeg).
func (l *Ledger) cluster(dst []footCell, tr *track, unit geo.Vector, k int, surv float64) []footCell {
	var iv interval
	l.project(&iv, tr, unit, k)
	return l.clusterAt(dst, tr, &iv, k, surv)
}

// clusterAt is cluster at the projected interval iv. In ReservationFull
// mode the class shadow answers when it can certify every station's
// class; otherwise, and in ReservationWeighted mode, the exact shadow
// supplies the probabilities.
func (l *Ledger) clusterAt(dst []footCell, tr *track, iv *interval, k int, surv float64) []footCell {
	if l.classes {
		l.classStats.shadows++
		out, ok := l.classShadow(dst, tr.bu, iv, k)
		if ok {
			return out
		}
		l.classStats.exact++
	}
	l.shadowBuf = l.shadow(l.shadowBuf[:0], tr, iv, k)
	l.classStats.pruned++
	l.classStats.visited += int64(len(l.stationPos))
	l.classStats.exps += int64(len(l.evaluated))
	bu := float64(tr.bu)
	for _, sc := range l.shadowBuf {
		dst = append(dst, footCell{cell: sc.ci, k: int32(k), amount: reserve(&l.cfg, bu, sc.prob, surv)})
	}
	return dst
}

// classShadow is clusterAt in ReservationFull mode without
// probabilities. There a station's demand depends only on its class:
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
// it was. DESIGN.md ("Full-reservation shadow classes") carries the
// proof.
func (l *Ledger) classShadow(dst []footCell, bu int, iv *interval, k int) ([]footCell, bool) {
	q, inv := iv.q, iv.inv
	if !(math.Abs(q.X) <= shadowMaxCoord && math.Abs(q.Y) <= shadowMaxCoord && inv <= shadowMaxCoord) {
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
	amountBU := float64(bu)
	start := len(dst)
	for n, i := range cands {
		r := weights[n]
		plo, phi := r*fhi, r*flo
		if phi < minProb {
			continue
		}
		amount := amountBU
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
