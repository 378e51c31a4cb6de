package facs

import (
	"math"

	"facs/internal/fuzzy"
)

// acceptMargin is the floor ε of the accept table's certainty test: a
// Cv interval is certain only where the interpolated A/R value clears
// the threshold by its error bound plus ε. It covers the float rounding
// of the A/R value plus the handoff bias (~1e-16), of the threshold
// shift and of the interval arithmetic, and it keeps a cell whose
// centre probe read an error of exactly 0 from admitting a verdict on
// the threshold itself.
const acceptMargin = 1e-6

// crossingShrink is how far, as a fraction of the cell width, an
// interval end solved inside a cell is pulled back into the certain
// side. The solved crossing is accurate to a few ulps; the shrink keeps
// rounding from pushing it past the true one.
const crossingShrink = 1e-9

// cvInterval is a closed range of correction values on which the
// admission verdict is certain.
type cvInterval struct {
	lo, hi float64
	accept bool
}

// acceptTable answers the FLC2 stage of a decision without evaluating
// it. A row per (handoff, R, Cs) holds the sorted, disjoint Cv
// intervals on which the compiled admission surface decides with
// certainty: certain-accept where interp − b ≥ T + ε, certain-reject
// where interp + b ≤ T − ε, with interp the surface's piecewise-linear
// profile along Cv, b the aligned error bound of each Cv cell (which
// bounds |exact − interp| there), and T the accept threshold, less the
// handoff bias on handoff rows. A decision whose whole FLC1 uncertainty
// range [cv−b1, cv+b1] lies inside one interval inherits its verdict;
// any other goes to the exact engines.
//
// Rows cover every integral R in [0, ceil(RequestMax)] and Cs in
// [0, ceil(CapacityBU)]; larger inputs use the last row, whose value is
// the universe maximum, exactly as the engine clamps them. A row whose
// value is not a node of the surface has no intervals.
type acceptTable struct {
	nR, nCs int
	start   []int32 // row k holds ivs[start[k]:start[k+1]]
	ivs     []cvInterval
}

// newAcceptTable builds the table from the admission surface's node
// values and aligned error bounds alone; it calls no exact engine.
func newAcceptTable(sys *System, surf2 *fuzzy.Surface) acceptTable {
	axes := surf2.Axes()
	rAx, csAx := axes[1], axes[2]
	t := acceptTable{
		nR:  int(math.Ceil(rAx.Max())) + 1,
		nCs: int(math.Ceil(csAx.Max())) + 1,
	}
	rows := 2 * t.nR * t.nCs
	t.start = make([]int32, rows+1)
	rowIvs := make([][]cvInterval, rows)
	thr := [2]float64{sys.acceptThreshold, sys.acceptThreshold - sys.handoffBias}
	for r := 0; r < t.nR; r++ {
		for u := 0; u < t.nCs; u++ {
			rv := math.Min(math.Max(float64(r), rAx.Min()), rAx.Max())
			uv := math.Min(math.Max(float64(u), csAx.Min()), csAx.Max())
			nodes, values, bounds, err := surf2.Profile(0, 0, rv, uv)
			if err != nil {
				continue
			}
			for h := range thr {
				rowIvs[t.row(h == 1, r, u)] = certainIntervals(nodes, values, bounds, thr[h])
			}
		}
	}
	for k, ivs := range rowIvs {
		t.ivs = append(t.ivs, ivs...)
		t.start[k+1] = int32(len(t.ivs))
	}
	return t
}

// row is the index of the table row for already clamped R and Cs.
func (t *acceptTable) row(handoff bool, r, u int) int {
	k := r*t.nCs + u
	if handoff {
		k += t.nR * t.nCs
	}
	return k
}

// intervals returns the row a request of requestBU against usedBU
// occupied bandwidth units reads.
func (t *acceptTable) intervals(handoff bool, requestBU, usedBU int) []cvInterval {
	r := min(max(requestBU, 0), t.nR-1)
	u := min(max(usedBU, 0), t.nCs-1)
	k := t.row(handoff, r, u)
	return t.ivs[t.start[k]:t.start[k+1]]
}

// decide returns the certain verdict for a request whose exact Cv lies
// in [lo, hi], with ok false when no interval of its row holds the
// whole range (NaN bounds included).
func (t *acceptTable) decide(handoff bool, requestBU, usedBU int, lo, hi float64) (accept, ok bool) {
	for _, iv := range t.intervals(handoff, requestBU, usedBU) {
		if lo < iv.lo {
			return false, false
		}
		if lo <= iv.hi {
			return iv.accept, hi <= iv.hi
		}
	}
	return false, false
}

// certainIntervals merges the certain-accept and certain-reject pieces
// of every Cv cell of one profile into sorted, disjoint intervals. The
// intervals touching the ends of the Cv universe extend to ±Inf: the
// engines clamp Cv, so an FLC1 range that overhangs the universe is
// decided by the universe end.
func certainIntervals(nodes, values, bounds []float64, thr float64) []cvInterval {
	var out []cvInterval
	add := func(iv cvInterval) {
		if n := len(out); n > 0 && out[n-1].accept == iv.accept && out[n-1].hi == iv.lo {
			out[n-1].hi = iv.hi
			return
		}
		out = append(out, iv)
	}
	for k, b := range bounds {
		if !(b < math.Inf(1)) {
			continue // no bound (or NaN): nothing in this cell is certain
		}
		x0, x1, v0, v1 := nodes[k], nodes[k+1], values[k], values[k+1]
		// Reject pieces lie where the line is low, accept pieces where
		// it is high, so a falling line lists them the other way round.
		left, lok := cellPiece(x0, x1, v0, v1, thr-acceptMargin-b, false)
		right, rok := cellPiece(x0, x1, v0, v1, thr+acceptMargin+b, true)
		if v1 < v0 {
			left, right, lok, rok = right, left, rok, lok
		}
		if lok {
			add(left)
		}
		if rok {
			add(right)
		}
	}
	if n := len(out); n > 0 {
		if out[0].lo == nodes[0] {
			out[0].lo = math.Inf(-1)
		}
		if out[n-1].hi == nodes[len(nodes)-1] {
			out[n-1].hi = math.Inf(1)
		}
	}
	return out
}

// cellPiece returns the part of [x0, x1] on which the line from
// (x0, v0) to (x1, v1) lies at or above level (accept) or at or below
// it, labelled with that class. Node values are exact, so a node is
// tested directly; a crossing strictly inside the cell is solved and
// then pulled crossingShrink of the cell width towards the certain
// side.
func cellPiece(x0, x1, v0, v1, level float64, accept bool) (cvInterval, bool) {
	in := func(v float64) bool {
		if accept {
			return v >= level
		}
		return v <= level
	}
	in0, in1 := in(v0), in(v1)
	switch {
	case in0 && in1:
		return cvInterval{x0, x1, accept}, true
	case !in0 && !in1:
		return cvInterval{}, false
	}
	x := x0 + (level-v0)/(v1-v0)*(x1-x0)
	shrink := crossingShrink * (x1 - x0)
	if in0 {
		return cvInterval{x0, math.Max(x0, math.Min(x, x1)-shrink), accept}, true
	}
	return cvInterval{math.Min(x1, math.Max(x, x0)+shrink), x1, accept}, true
}
