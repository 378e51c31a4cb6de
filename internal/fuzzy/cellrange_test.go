package fuzzy

import (
	"math"
	"testing"
)

// TestCellRanges: on the small test surface every cell range holds the
// cell's corners widened by its bound and every point range inside the
// cell; surfaces without an error map, with aligned axes, and queries
// of the wrong arity are refused.
func TestCellRanges(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9, 7), WithSurfaceErrorMap(2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCellRanges(s)
	if err != nil {
		t.Fatal(err)
	}
	axes := s.Axes()
	xs, ys := axes[0].Nodes(), axes[1].Nodes()
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, p := range [4][2]float64{{xs[i], ys[j]}, {xs[i+1], ys[j]}, {xs[i], ys[j+1]}, {xs[i+1], ys[j+1]}} {
				v, _ := s.EvaluateVec(p[0], p[1])
				mn, mx = math.Min(mn, v), math.Max(mx, v)
			}
			for _, f := range []float64{0, 0.25, 0.5, 0.999} {
				x, y := xs[i]+f*(xs[i+1]-xs[i]), ys[j]+f*(ys[j+1]-ys[j])
				v, b, _ := s.EvaluateVecWithBound(x, y)
				lo, hi, err := c.Range(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if !(lo <= mn-b && mx+b <= hi && lo <= v-b && v+b <= hi) {
					t.Fatalf("cell (%d, %d) at (%v, %v): range [%v, %v], corners [%v, %v], point %v, bound %v", i, j, x, y, lo, hi, mn, mx, v, b)
				}
			}
		}
	}
	if _, _, err := c.Range(1); err == nil {
		t.Fatal("a one-value query of a two-input surface should fail")
	}
	bare, err := NewSurface(e, WithSurfaceGrid(5))
	if err != nil {
		t.Fatal(err)
	}
	_, aligned := alignedTestSurface(t, 1)
	for name, s := range map[string]*Surface{"nil": nil, "no error map": bare, "aligned": aligned} {
		if _, err := NewCellRanges(s); err == nil {
			t.Errorf("%s: NewCellRanges should fail", name)
		}
	}
}

// TestOutwardRounding: the float32 ends of a cell range never lie
// inside the float64 range they stand for.
func TestOutwardRounding(t *testing.T) {
	for _, x := range []float64{0, 0.1, -0.1, 1.0 / 3, 0.5, -7.25, 1e-40, math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
		if lo := roundDown32(x); float64(lo) > x {
			t.Errorf("roundDown32(%v) = %v", x, lo)
		}
		if hi := roundUp32(x); float64(hi) < x {
			t.Errorf("roundUp32(%v) = %v", x, hi)
		}
	}
}
