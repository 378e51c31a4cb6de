package facs

import (
	"math"
	"sync/atomic"

	"facs/internal/fuzzy"
)

// subCellLevels is how often a straddling FLC1 cell is refined: level L
// splits every axis of the cell into 2^L equal parts, so level 1 asks
// the query's 2³ sub-cell and level 2 its 4³ sub-cell.
const subCellLevels = 2

// The sub-cell store holds subCellSlots enclosures (a power of two,
// 512 KB in all). A key probes at most subCellProbes consecutive
// slots; when none is free or its own, the store is full for it and
// the request goes exact.
const (
	subCellBits   = 15
	subCellSlots  = 1 << subCellBits
	subCellProbes = 16
)

// flc1Cells encloses FLC1 over its compile grid on first touch: one
// word per grid cell and a bounded store of sub-cells, each holding a
// packed enclosure (packRange), 0 until enclosed. An enclosure is a
// pure function of its box, so a word only ever goes from 0 to its one
// value: racing fillers compute the same bits, the first
// compare-and-swap publishes them and the others' find them in place.
type flc1Cells struct {
	enc   *fuzzy.Enclosure
	axes  [3]flc1Axis
	cells []atomic.Uint64 // row-major over the grid cells
	subs  []subCellSlot

	cellsEnclosed atomic.Int64
	subsEnclosed  atomic.Int64
}

// flc1Axis is one FLC1 input's grid axis.
type flc1Axis struct {
	axis   fuzzy.SurfaceAxis
	nodes  []float64
	stride int // cell index stride
}

// subCellSlot is one entry of the sub-cell store: a key naming the
// cell, level and sub-cell (subCellKey, 0 for a free slot) and the
// packed enclosure.
type subCellSlot struct {
	key, word atomic.Uint64
}

// flc1Query is one request's FLC1 inputs, located on the grid.
type flc1Query struct {
	vals [3]float64 // speed, angle, distance; clamped into the cell by locate
	j    [3]int     // the cell's lower node per axis
	cell int        // the cell's index in the table
}

// newFLC1Cells builds FLC1's grid at gridSize uniform nodes per axis
// (fuzzy.GridAxes, the grid NewSurface would compile) with an empty cell
// table and sub-cell store.
func newFLC1Cells(e *fuzzy.Engine, gridSize int) (*flc1Cells, error) {
	enc, err := fuzzy.NewEnclosure(e)
	if err != nil {
		return nil, err
	}
	axes, err := fuzzy.GridAxes(e, fuzzy.WithSurfaceGrid(gridSize))
	if err != nil {
		return nil, err
	}
	f := &flc1Cells{enc: enc, subs: make([]subCellSlot, subCellSlots)}
	n := 1
	for i := len(axes) - 1; i >= 0; i-- {
		f.axes[i] = flc1Axis{axis: axes[i], nodes: axes[i].Nodes(), stride: n}
		n *= axes[i].N() - 1
	}
	f.cells = make([]atomic.Uint64, n)
	return f, nil
}

// locate finds the cell of q.vals and clamps each input into it, as the
// engine clamps it to its universe.
func (f *flc1Cells) locate(q *flc1Query) {
	q.cell = 0
	for i := range f.axes {
		a := &f.axes[i]
		j, _ := a.axis.Locate(q.vals[i])
		x, n0, n1 := q.vals[i], a.nodes[j], a.nodes[j+1]
		if !(x > n0) { // NaN clamps low, as in the engine
			x = n0
		} else if x > n1 {
			x = n1
		}
		q.vals[i], q.j[i] = x, j
		q.cell += j * a.stride
	}
}

// cellRange returns the enclosure of q's cell, enclosing the cell first
// if no decision has yet.
func (f *flc1Cells) cellRange(q *flc1Query) (lo, hi float64) {
	slot := &f.cells[q.cell]
	w := slot.Load()
	if w == 0 {
		var bLo, bHi [3]float64
		for i := range f.axes {
			bLo[i], bHi[i] = f.axes[i].nodes[q.j[i]], f.axes[i].nodes[q.j[i]+1]
		}
		w = f.enclose(&bLo, &bHi)
		if slot.CompareAndSwap(0, w) {
			f.cellsEnclosed.Add(1)
		}
	}
	return unpackRange(w)
}

// subCellRange returns the enclosure of the level-L sub-cell holding q,
// enclosing it first if no decision has yet. ok is false when the
// sub-cell store has no slot for it.
func (f *flc1Cells) subCellRange(q *flc1Query, level int) (lo, hi float64, ok bool) {
	parts := 1 << level
	var bLo, bHi [3]float64
	sub := 0
	for i := range f.axes {
		n0, n1 := f.axes[i].nodes[q.j[i]], f.axes[i].nodes[q.j[i]+1]
		s := 0
		for t := 1; t < parts; t++ {
			if subEdge(n0, n1, t, parts) <= q.vals[i] {
				s = t
			}
		}
		bLo[i], bHi[i] = subEdge(n0, n1, s, parts), subEdge(n0, n1, s+1, parts)
		sub = sub*parts + s
	}
	slot := f.subSlot(subCellKey(q.cell, level, sub))
	if slot == nil {
		return 0, 0, false
	}
	w := slot.word.Load()
	if w == 0 {
		w = f.enclose(&bLo, &bHi)
		if slot.word.CompareAndSwap(0, w) {
			f.subsEnclosed.Add(1)
		}
	}
	lo, hi = unpackRange(w)
	return lo, hi, true
}

// subEdge is edge t of the parts+1 that split [n0, n1] evenly. The
// outer edges are the nodes themselves, and the edges never decrease
// with t (parts is a power of two, so t/parts is exact, and rounding is
// monotone), so the sub-cell [subEdge(s), subEdge(s+1)] with the
// largest s whose lower edge is at or below x holds x.
func subEdge(n0, n1 float64, t, parts int) float64 {
	switch t {
	case 0:
		return n0
	case parts:
		return n1
	}
	return min(n0+(n1-n0)*(float64(t)/float64(parts)), n1)
}

// subCellKey names sub-cell sub of a cell at a level; it is never 0.
// A level-2 sub-cell index is below 4³ = 64, so it fits in 6 bits.
func subCellKey(cell, level, sub int) uint64 {
	return ((uint64(cell)*subCellLevels+uint64(level-1))<<6 | uint64(sub)) + 1
}

// subSlot returns the store slot of key, claiming a free one on the
// first visit, or nil when its probe window holds neither.
func (f *flc1Cells) subSlot(key uint64) *subCellSlot {
	h := key * 0x9e3779b97f4a7c15 >> (64 - subCellBits)
	for p := uint64(0); p < subCellProbes; p++ {
		s := &f.subs[(h+p)&(subCellSlots-1)]
		k := s.key.Load()
		if k == 0 {
			s.key.CompareAndSwap(0, key)
			k = s.key.Load()
		}
		if k == key {
			return s
		}
	}
	return nil
}

// enclose encloses FLC1 over a box and packs the range.
func (f *flc1Cells) enclose(lo, hi *[3]float64) uint64 {
	elo, ehi := f.enc.Enclose(lo[:], hi[:])
	return packRange(elo, ehi)
}

// nanRange32 is the float32 both ends of a NaN range pack as.
var nanRange32 = math.Float32frombits(0x7fc00000)

// packRange packs [lo, hi] as two float32 ends rounded outward,
// complemented so that no range packs to 0, the word of a box not yet
// enclosed: only a NaN end with every bit set would, and a NaN range
// packs as nanRange32 twice.
func packRange(lo, hi float64) uint64 {
	l, h := roundDown32(lo), roundUp32(hi)
	if !(l <= h) {
		l, h = nanRange32, nanRange32
	}
	return ^(uint64(math.Float32bits(l))<<32 | uint64(math.Float32bits(h)))
}

// unpackRange returns the range a packRange word holds.
func unpackRange(w uint64) (lo, hi float64) {
	w = ^w
	return float64(math.Float32frombits(uint32(w >> 32))), float64(math.Float32frombits(uint32(w)))
}

// roundDown32 is the largest float32 at or below x.
func roundDown32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// roundUp32 is the smallest float32 at or above x.
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}
