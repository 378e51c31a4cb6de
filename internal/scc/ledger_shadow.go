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
)

// shadowCell is one entry of a Ledger shadow: appendShadow's CellProb
// with the station's dense index in place of its hex.
type shadowCell struct {
	ci   int32
	prob float64
}

// shadow appends to dst the shadow of a mobile at projection interval k:
// the entries appendShadow emits for the same kinematics, in the same
// station order and with bitwise the same probabilities, each carrying
// its dense station index. unit must be geo.UnitFromHeading(headingDeg).
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
func (l *Ledger) shadow(dst []shadowCell, pos geo.Point, headingDeg float64, unit geo.Vector, speedMps float64, k int) []shadowCell {
	q, inv := projection(&l.cfg, pos, unit, speedMps, k)
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
		l.collapse = appendShadow(&l.cfg, l.stations, l.weights, l.collapse[:0], pos, headingDeg, speedMps, k)
		for _, cp := range l.collapse {
			dst = append(dst, shadowCell{ci: int32(l.idx[cp.Hex]), prob: cp.Prob})
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
