package geo

import (
	"fmt"
	"math"
)

// Hex is an axial coordinate on a pointy-top hexagonal grid. The implicit
// third cube coordinate is S() = -Q-R. Cellular layouts use one hex per
// radio cell.
type Hex struct {
	Q int
	R int
}

// S returns the derived third cube coordinate.
func (h Hex) S() int { return -h.Q - h.R }

// Add returns the component-wise sum of two hexes.
func (h Hex) Add(o Hex) Hex { return Hex{h.Q + o.Q, h.R + o.R} }

// Sub returns the component-wise difference of two hexes.
func (h Hex) Sub(o Hex) Hex { return Hex{h.Q - o.Q, h.R - o.R} }

// Scale multiplies both coordinates by k.
func (h Hex) Scale(k int) Hex { return Hex{h.Q * k, h.R * k} }

// String implements fmt.Stringer.
func (h Hex) String() string { return fmt.Sprintf("hex(%d,%d)", h.Q, h.R) }

// hexDirections lists the six axial neighbour offsets in counter-clockwise
// order starting from "east".
var hexDirections = [6]Hex{
	{1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1},
}

// Direction returns the i-th (mod 6) neighbour offset.
func Direction(i int) Hex {
	i %= 6
	if i < 0 {
		i += 6
	}
	return hexDirections[i]
}

// Neighbors returns the six adjacent hexes in counter-clockwise order.
func (h Hex) Neighbors() [6]Hex {
	var out [6]Hex
	for i, d := range hexDirections {
		out[i] = h.Add(d)
	}
	return out
}

// DistanceTo returns the hex-grid distance (minimum number of steps)
// between two hexes.
func (h Hex) DistanceTo(o Hex) int {
	d := h.Sub(o)
	return (abs(d.Q) + abs(d.R) + abs(d.S())) / 2
}

// Ring returns the hexes at exactly radius steps from h, counter-clockwise.
// Radius 0 returns just h; negative radii return nil.
func (h Hex) Ring(radius int) []Hex {
	if radius < 0 {
		return nil
	}
	if radius == 0 {
		return []Hex{h}
	}
	out := make([]Hex, 0, 6*radius)
	cur := h.Add(Direction(4).Scale(radius))
	for side := 0; side < 6; side++ {
		for step := 0; step < radius; step++ {
			out = append(out, cur)
			cur = cur.Add(Direction(side))
		}
	}
	return out
}

// Spiral returns all hexes within radius steps of h: h itself followed by
// rings of increasing radius. It contains SpiralLen(radius) hexes.
func (h Hex) Spiral(radius int) []Hex {
	if radius < 0 {
		return nil
	}
	out := make([]Hex, 0, SpiralLen(radius))
	for r := 0; r <= radius; r++ {
		out = append(out, h.Ring(r)...)
	}
	return out
}

// SpiralLen is the number of hexes within radius steps of a hex,
// 1+3·r·(r+1): the cell count of a deployment of radius rings. A
// negative radius holds none.
func SpiralLen(radius int) int {
	if radius < 0 {
		return 0
	}
	return 1 + 3*radius*(radius+1)
}

// Layout converts between hex coordinates and plane positions for a
// pointy-top grid. CellRadius is the centre-to-corner distance of one hex
// in metres; Origin is the plane position of hex (0,0).
type Layout struct {
	CellRadius float64
	Origin     Point
}

// NewLayout validates and constructs a layout.
func NewLayout(cellRadius float64, origin Point) (Layout, error) {
	if math.IsNaN(cellRadius) || cellRadius <= 0 {
		return Layout{}, fmt.Errorf("geo: cell radius must be positive, got %v", cellRadius)
	}
	return Layout{CellRadius: cellRadius, Origin: origin}, nil
}

// Center returns the plane position of the centre of hex h.
func (l Layout) Center(h Hex) Point {
	x := l.CellRadius * math.Sqrt(3) * (float64(h.Q) + float64(h.R)/2)
	y := l.CellRadius * 1.5 * float64(h.R)
	return Point{l.Origin.X + x, l.Origin.Y + y}
}

// HexAt returns the hex containing plane position p, using cube rounding.
func (l Layout) HexAt(p Point) Hex {
	x := (p.X - l.Origin.X) / l.CellRadius
	y := (p.Y - l.Origin.Y) / l.CellRadius
	q := math.Sqrt(3)/3*x - y/3
	r := 2.0 / 3 * y
	return cubeRound(q, r)
}

// cubeRound converts fractional axial coordinates to the nearest hex.
func cubeRound(qf, rf float64) Hex {
	sf := -qf - rf
	q := math.Round(qf)
	r := math.Round(rf)
	s := math.Round(sf)
	dq := math.Abs(q - qf)
	dr := math.Abs(r - rf)
	ds := math.Abs(s - sf)
	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return Hex{int(q), int(r)}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
