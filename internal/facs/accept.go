package facs

import (
	"math"
	"sync/atomic"

	"facs/internal/fuzzy"
)

// acceptDepth is how finely a row fill splits the Cv universe: it
// bisects a piece whose enclosure straddles the verdict until the piece
// is 2^-acceptDepth of the universe wide, and leaves a piece that still
// straddles at that width uncertain.
const acceptDepth = 11

// acceptUnits is the number of finest pieces across the Cv universe;
// every interval end is the edge of one.
const acceptUnits = 1 << acceptDepth

// acceptSlots is how many intervals a row holds.
const acceptSlots = 7

// acceptRow is one row of the table: a header and the two ends of each
// interval.
type acceptRow [1 + 2*acceptSlots]atomic.Uint64

// acceptTable answers the FLC2 stage of a decision without evaluating
// it. A row per (handoff, R, Cs) holds the sorted, disjoint Cv
// intervals on which the verdict is proven: the enclosure of exact
// FLC2 over (Cv piece, R, Cs) lies wholly where System.verdict accepts
// or wholly where it rejects. A decision whose whole FLC1 range lies
// inside one interval inherits its verdict; any other goes to the
// exact engines.
//
// Rows cover every integral R in [0, ceil(RequestMax)] and Cs in
// [0, ceil(CapacityBU)]; larger inputs use the last row, whose value
// the enclosure clamps to the universe maximum, exactly as the engine
// clamps them. Handoffs have rows of their own only under a handoff
// bias: without one their verdict is a new call's (the cap at 1 never
// moves a threshold in [-1, 1]), and they read the new-call rows.
//
// A row is filled the first time a decision reads it (fill), into an
// acceptRow allocated at construction: a header word, 0 until the row
// is filled (packHeader), and the float64 bits of the two ends of each
// of up to acceptSlots intervals. A row is a pure function of its
// index, so racing fillers store the same bits, and the header's
// compare-and-swap publishes it.
type acceptTable struct {
	sys     *System
	enc     *fuzzy.Enclosure
	cvMin   float64
	cvMax   float64
	nR, nCs int
	handoff int // the first handoff row; 0 without a handoff bias
	rows    []acceptRow

	rowsFilled atomic.Int64
	enclosures atomic.Int64 // FLC2 enclosures of the rows filled
}

// init lays out the table for sys with no row filled.
func (t *acceptTable) init(sys *System) error {
	enc, err := fuzzy.NewEnclosure(sys.FLC2())
	if err != nil {
		return err
	}
	t.sys, t.enc = sys, enc
	t.cvMin, t.cvMax = sys.FLC2().Inputs()[0].Universe()
	t.nR = int(math.Ceil(sys.params.RequestMax)) + 1
	t.nCs = int(math.Ceil(sys.params.CapacityBU)) + 1
	rows := t.nR * t.nCs
	if sys.handoffBias != 0 {
		t.handoff = rows
		rows *= 2
	}
	t.rows = make([]acceptRow, rows)
	return nil
}

// rowOf returns the index of the row a request of requestBU against
// usedBU occupied bandwidth units reads.
func (t *acceptTable) rowOf(handoff bool, requestBU, usedBU int) int {
	k := min(max(requestBU, 0), t.nR-1)*t.nCs + min(max(usedBU, 0), t.nCs-1)
	if handoff {
		k += t.handoff
	}
	return k
}

// decide returns the certain verdict for a request whose exact Cv lies
// in [lo, hi], with ok false when no interval of its row holds the
// whole range (NaN bounds included). It fills the row first if no
// decision has.
func (t *acceptTable) decide(handoff bool, requestBU, usedBU int, lo, hi float64) (accept, ok bool) {
	k := t.rowOf(handoff, requestBU, usedBU)
	row := &t.rows[k]
	header := row[0].Load()
	if header == 0 {
		header = t.fill(k)
	}
	n, accepts := unpackHeader(header)
	for i := range n {
		if lo < math.Float64frombits(row[1+2*i].Load()) {
			return false, false
		}
		if ivHi := math.Float64frombits(row[2+2*i].Load()); lo <= ivHi {
			return accepts&(1<<i) != 0, hi <= ivHi
		}
	}
	return false, false
}

// rowFill is one row's fill in progress: the pieces certified so far,
// merged, as units of the Cv universe.
type rowFill struct {
	t          *acceptTable
	handoff    bool
	r, u       float64
	ivs        [acceptSlots]unitInterval
	n          int
	full       bool // a piece found no slot; the fill stops there
	enclosures int64
}

// unitInterval is a certain interval from unit k0 to unit k1.
type unitInterval struct {
	k0, k1 int
	accept bool
}

// fill certifies row k and publishes it. It encloses FLC2 over the
// whole Cv universe at the row's R and Cs, and bisects each piece whose
// enclosure straddles the verdict down to acceptDepth, left piece
// first, so certain pieces arrive in order. Only the fill whose
// compare-and-swap publishes the row counts it and its enclosures. It
// returns the row's header.
func (t *acceptTable) fill(k int) uint64 {
	row, half := &t.rows[k], t.nR*t.nCs
	f := rowFill{t: t, handoff: k >= half, r: float64(k % half / t.nCs), u: float64(k % t.nCs)}
	f.bisect(0, acceptUnits)
	var accepts uint64
	for i, iv := range f.ivs[:f.n] {
		// An interval touching an end of the Cv universe extends to
		// ±Inf there: the engines clamp Cv, so an FLC1 range that
		// overhangs the universe is decided by the universe end.
		lo, hi := t.edge(iv.k0), t.edge(iv.k1)
		if iv.k0 == 0 {
			lo = math.Inf(-1)
		}
		if iv.k1 == acceptUnits {
			hi = math.Inf(1)
		}
		row[1+2*i].Store(math.Float64bits(lo))
		row[2+2*i].Store(math.Float64bits(hi))
		if iv.accept {
			accepts |= 1 << i
		}
	}
	header := packHeader(f.n, accepts)
	if row[0].CompareAndSwap(0, header) {
		t.rowsFilled.Add(1)
		t.enclosures.Add(f.enclosures)
	}
	return header
}

// bisect certifies the Cv piece between units k0 and k1. A piece is
// certain-accept when its enclosure's low end is accepted and
// certain-reject when its high end is not: the verdict never decreases
// in the A/R value, so every value in between has the same verdict.
func (f *rowFill) bisect(k0, k1 int) {
	if f.full {
		return
	}
	t := f.t
	bLo, bHi := [3]float64{t.edge(k0), f.r, f.u}, [3]float64{t.edge(k1), f.r, f.u}
	lo, hi := t.enc.Enclose(bLo[:], bHi[:])
	f.enclosures++
	if lo <= hi { // NaN when no rule fires: never certain
		if _, accept := t.sys.verdict(lo, f.handoff); accept {
			f.add(k0, k1, true)
			return
		}
		if _, accept := t.sys.verdict(hi, f.handoff); !accept {
			f.add(k0, k1, false)
			return
		}
	}
	if k1-k0 > 1 {
		mid := (k0 + k1) / 2
		f.bisect(k0, mid)
		f.bisect(mid, k1)
	}
}

// add appends a certain piece, merging it into the last interval when
// they touch and share a verdict. A piece that finds no slot ends the
// fill: the row keeps the intervals before it, which is still sound.
func (f *rowFill) add(k0, k1 int, accept bool) {
	if f.n > 0 {
		if last := &f.ivs[f.n-1]; last.k1 == k0 && last.accept == accept {
			last.k1 = k1
			return
		}
	}
	if f.n == acceptSlots {
		f.full = true
		return
	}
	f.ivs[f.n] = unitInterval{k0, k1, accept}
	f.n++
}

// edge is the Cv value at unit k of the universe. The universe ends are
// exact, and edge never decreases with k (k/acceptUnits is exact, and
// rounding is monotone).
func (t *acceptTable) edge(k int) float64 {
	switch k {
	case 0:
		return t.cvMin
	case acceptUnits:
		return t.cvMax
	}
	return min(t.cvMin+(t.cvMax-t.cvMin)*(float64(k)/acceptUnits), t.cvMax)
}

// packHeader packs a filled row's interval count and the bit mask of
// its accept intervals into its header, which is never 0.
func packHeader(n int, accepts uint64) uint64 {
	return accepts<<8 | uint64(n+1)
}

// unpackHeader is the inverse of packHeader.
func unpackHeader(h uint64) (n int, accepts uint64) {
	return int(h&0xff) - 1, h >> 8
}
