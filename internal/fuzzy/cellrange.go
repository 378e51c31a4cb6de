package fuzzy

import (
	"fmt"
	"math"
	"slices"
)

// cellRangePad widens every cell range, relative to the magnitudes it
// is built from, past the rounding of an interpolated value: a computed
// convex combination of the corners can overshoot their hull by a few
// ulps of the largest corner, and the query's bound is subtracted or
// added in float64 on top.
const cellRangePad = 1e-12

// CellRanges bounds a surface cell by cell: for every grid cell it
// holds an interval that contains the surface's exact engine anywhere
// in the cell, as far as the error map bounds it. A cell's interval is
// [min corner − b, max corner + b], with b the cell's (dilated) error
// bound, padded by cellRangePad and rounded outward to float32, so a
// table over 64³ cells takes 2 MB.
//
// Multilinear interpolation is a convex combination of the cell's
// corners, so for every query the interval EvaluateVecWithBound implies,
// [value − bound, value + bound], lies inside its cell's range. A caller
// that can settle a question from the cell range alone skips the
// interpolation, and its answer is as sound as one from the point
// range; only where the cell range is too wide does it need the point.
//
// CellRanges needs an error map with no aligned axes: along an aligned
// axis the map bounds only the nodes, not the cells between them.
type CellRanges struct {
	s      *Surface
	ranges []cellRange // row-major over the cells, like the error map
}

type cellRange struct{ lo, hi float32 }

// NewCellRanges derives the per-cell ranges from a surface's node
// values and error map. It reads the surface only; the surface stays
// shared and immutable.
func NewCellRanges(s *Surface) (*CellRanges, error) {
	switch {
	case s == nil || s.errs == nil:
		return nil, fmt.Errorf("fuzzy: cell ranges need a surface with an error map")
	case s.aligned != 0:
		return nil, fmt.Errorf("fuzzy: cell ranges need an error map with no aligned axes, %s has mask %#x", s, s.aligned)
	}
	// Corner minima and maxima by separable passes: each pass replaces
	// lo and hi, along one axis, by the min and max of neighbouring
	// nodes, which shrinks that axis from its node count to its cell
	// count. Writes never overtake reads, so the passes run in place,
	// and after the last one lo and hi are row-major over the cells,
	// like the error map. The builtin min and max propagate NaN, so a
	// NaN corner gives a NaN range, which settles nothing.
	lo, hi := slices.Clone(s.values), slices.Clone(s.values)
	shape := make([]int, len(s.axes))
	for i, ax := range s.axes {
		shape[i] = ax.N()
	}
	for axis, n := range shape {
		inner := 1
		for _, m := range shape[axis+1:] {
			inner *= m
		}
		outer := len(lo) / (n * inner)
		dst := 0
		for o := 0; o < outer; o++ {
			for j := 0; j+1 < n; j++ {
				src := (o*n + j) * inner
				for r := 0; r < inner; r, src, dst = r+1, src+1, dst+1 {
					lo[dst] = min(lo[src], lo[src+inner])
					hi[dst] = max(hi[src], hi[src+inner])
				}
			}
		}
		shape[axis] = n - 1
		lo, hi = lo[:dst], hi[:dst]
	}
	c := &CellRanges{s: s, ranges: make([]cellRange, len(s.errs))}
	for k, b := range s.errs {
		pad := cellRangePad * (max(math.Abs(lo[k]), math.Abs(hi[k])) + b)
		c.ranges[k] = cellRange{roundDown32(lo[k] - b - pad), roundUp32(hi[k] + b + pad)}
	}
	return c, nil
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

// Range returns the range of the cell holding the query, located
// exactly as EvaluateVec locates it (inputs in declaration order,
// clamped to the universes, NaN clamping low). It costs one guided
// locate per axis and one table read.
func (c *CellRanges) Range(vals ...float64) (lo, hi float64, err error) {
	axes := c.s.axes
	if len(vals) != len(axes) {
		return 0, 0, fmt.Errorf("fuzzy: got %d input values, want %d", len(vals), len(axes)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	k := 0
	for i := range axes {
		j, _ := axes[i].locate(vals[i])
		k += j * c.s.errStrides[i]
	}
	r := c.ranges[k]
	return float64(r.lo), float64(r.hi), nil
}
