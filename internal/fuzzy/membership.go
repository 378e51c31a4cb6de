package fuzzy

import (
	"fmt"
	"math"
)

// MembershipFunc maps a crisp value to a membership degree.
//
// Implementations must be pure functions: Membership must always return a
// value in [0, 1] and must be safe for concurrent use.
type MembershipFunc interface {
	// Membership returns the degree to which x belongs to the fuzzy set.
	Membership(x float64) float64
	// Support returns the closed interval outside of which membership is
	// zero. Shoulder functions may return ±Inf bounds.
	Support() (lo, hi float64)
	// Kernel returns the interval on which membership is exactly one.
	// For a triangular function it is the degenerate interval
	// [center, center].
	Kernel() (lo, hi float64)
}

// Triangular is the paper's f(x; x0, a0, a1) membership function: a triangle
// with apex at Center, rising over LeftWidth and falling over RightWidth.
//
// A zero width denotes a vertical edge: membership drops to zero
// immediately on that side of the apex.
type Triangular struct {
	Center     float64
	LeftWidth  float64
	RightWidth float64
}

var _ MembershipFunc = Triangular{}

// NewTriangular validates and constructs a Triangular membership function.
func NewTriangular(center, leftWidth, rightWidth float64) (Triangular, error) {
	t := Triangular{Center: center, LeftWidth: leftWidth, RightWidth: rightWidth}
	if err := t.validate(); err != nil {
		return Triangular{}, err
	}
	return t, nil
}

// MustTriangular is like NewTriangular but panics on invalid parameters.
// It is intended for statically known shapes such as the paper's tables.
func MustTriangular(center, leftWidth, rightWidth float64) Triangular {
	t, err := NewTriangular(center, leftWidth, rightWidth)
	if err != nil {
		panic(err)
	}
	return t
}

func (t Triangular) validate() error {
	switch {
	case math.IsNaN(t.Center) || math.IsInf(t.Center, 0):
		return fmt.Errorf("fuzzy: triangular center must be finite, got %v", t.Center)
	case math.IsNaN(t.LeftWidth) || t.LeftWidth < 0:
		return fmt.Errorf("fuzzy: triangular left width must be >= 0, got %v", t.LeftWidth)
	case math.IsNaN(t.RightWidth) || t.RightWidth < 0:
		return fmt.Errorf("fuzzy: triangular right width must be >= 0, got %v", t.RightWidth)
	}
	return nil
}

// Membership implements MembershipFunc.
func (t Triangular) Membership(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case x == t.Center:
		return 1
	case x < t.Center:
		if t.LeftWidth == 0 {
			return 0
		}
		return clamp01((x-t.Center)/t.LeftWidth + 1)
	default: // x > t.Center
		if t.RightWidth == 0 {
			return 0
		}
		return clamp01((t.Center-x)/t.RightWidth + 1)
	}
}

// Support implements MembershipFunc.
func (t Triangular) Support() (lo, hi float64) {
	return t.Center - t.LeftWidth, t.Center + t.RightWidth
}

// Kernel implements MembershipFunc.
func (t Triangular) Kernel() (lo, hi float64) { return t.Center, t.Center }

// String returns a compact description, e.g. "tri(30; 15, 30)".
func (t Triangular) String() string {
	return fmt.Sprintf("tri(%g; %g, %g)", t.Center, t.LeftWidth, t.RightWidth)
}

// Trapezoidal is the paper's g(x; x0, x1, a0, a1) membership function: a
// plateau of membership one on [LeftEdge, RightEdge], rising over LeftWidth
// before the plateau and falling over RightWidth after it.
//
// LeftEdge may be -Inf and RightEdge may be +Inf to express shoulder
// functions that stay at one beyond the end of the universe. A zero width
// denotes a vertical edge.
type Trapezoidal struct {
	LeftEdge   float64
	RightEdge  float64
	LeftWidth  float64
	RightWidth float64
}

var _ MembershipFunc = Trapezoidal{}

// NewTrapezoidal validates and constructs a Trapezoidal membership function.
func NewTrapezoidal(leftEdge, rightEdge, leftWidth, rightWidth float64) (Trapezoidal, error) {
	g := Trapezoidal{
		LeftEdge:   leftEdge,
		RightEdge:  rightEdge,
		LeftWidth:  leftWidth,
		RightWidth: rightWidth,
	}
	if err := g.validate(); err != nil {
		return Trapezoidal{}, err
	}
	return g, nil
}

// MustTrapezoidal is like NewTrapezoidal but panics on invalid parameters.
func MustTrapezoidal(leftEdge, rightEdge, leftWidth, rightWidth float64) Trapezoidal {
	g, err := NewTrapezoidal(leftEdge, rightEdge, leftWidth, rightWidth)
	if err != nil {
		panic(err)
	}
	return g
}

func (g Trapezoidal) validate() error {
	switch {
	case math.IsNaN(g.LeftEdge) || math.IsNaN(g.RightEdge):
		return fmt.Errorf("fuzzy: trapezoidal edges must not be NaN")
	case g.LeftEdge > g.RightEdge:
		return fmt.Errorf("fuzzy: trapezoidal left edge %v exceeds right edge %v", g.LeftEdge, g.RightEdge)
	case math.IsNaN(g.LeftWidth) || g.LeftWidth < 0:
		return fmt.Errorf("fuzzy: trapezoidal left width must be >= 0, got %v", g.LeftWidth)
	case math.IsNaN(g.RightWidth) || g.RightWidth < 0:
		return fmt.Errorf("fuzzy: trapezoidal right width must be >= 0, got %v", g.RightWidth)
	case math.IsInf(g.LeftEdge, 1) || math.IsInf(g.RightEdge, -1):
		return fmt.Errorf("fuzzy: trapezoidal plateau [%v, %v] is empty", g.LeftEdge, g.RightEdge)
	}
	return nil
}

// Membership implements MembershipFunc.
func (g Trapezoidal) Membership(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return 0
	case x >= g.LeftEdge && x <= g.RightEdge:
		return 1
	case x < g.LeftEdge:
		if g.LeftWidth == 0 || math.IsInf(g.LeftEdge, -1) {
			return 0
		}
		return clamp01((x-g.LeftEdge)/g.LeftWidth + 1)
	default: // x > g.RightEdge
		if g.RightWidth == 0 || math.IsInf(g.RightEdge, 1) {
			return 0
		}
		return clamp01((g.RightEdge-x)/g.RightWidth + 1)
	}
}

// Support implements MembershipFunc.
func (g Trapezoidal) Support() (lo, hi float64) {
	return g.LeftEdge - g.LeftWidth, g.RightEdge + g.RightWidth
}

// Kernel implements MembershipFunc.
func (g Trapezoidal) Kernel() (lo, hi float64) { return g.LeftEdge, g.RightEdge }

// String returns a compact description, e.g. "trap(0, 15; 0, 15)".
func (g Trapezoidal) String() string {
	return fmt.Sprintf("trap(%g, %g; %g, %g)", g.LeftEdge, g.RightEdge, g.LeftWidth, g.RightWidth)
}

// NewLeftShoulder builds a trapezoid whose membership is one for every
// x <= edge and falls to zero over width.
func NewLeftShoulder(edge, width float64) (Trapezoidal, error) {
	return NewTrapezoidal(math.Inf(-1), edge, 0, width)
}

// MustLeftShoulder is like NewLeftShoulder but panics on invalid parameters.
func MustLeftShoulder(edge, width float64) Trapezoidal {
	g, err := NewLeftShoulder(edge, width)
	if err != nil {
		panic(err)
	}
	return g
}

// NewRightShoulder builds a trapezoid whose membership is one for every
// x >= edge and falls to zero over width on the left.
func NewRightShoulder(edge, width float64) (Trapezoidal, error) {
	return NewTrapezoidal(edge, math.Inf(1), width, 0)
}

// MustRightShoulder is like NewRightShoulder but panics on invalid parameters.
func MustRightShoulder(edge, width float64) Trapezoidal {
	g, err := NewRightShoulder(edge, width)
	if err != nil {
		panic(err)
	}
	return g
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
