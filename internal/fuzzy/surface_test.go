package fuzzy

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// surfTestEngine builds a small two-input Mamdani controller used by
// the surface tests: x in [0, 10], y in [0, 1], output z in [0, 1].
func surfTestEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	x := MustVariable("x", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 6)},
		Term{Name: "hi", MF: MustTriangular(10, 6, 0)},
	)
	y := MustVariable("y", 0, 1,
		Term{Name: "off", MF: MustTriangular(0, 0, 1)},
		Term{Name: "on", MF: MustTriangular(1, 1, 0)},
	)
	z := MustVariable("z", 0, 1,
		Term{Name: "small", MF: MustTriangular(0, 0, 0.6)},
		Term{Name: "large", MF: MustTriangular(1, 0.6, 0)},
	)
	rules := []Rule{
		{If: []Clause{{Var: "x", Term: "lo"}, {Var: "y", Term: "off"}}, Then: Clause{Var: "z", Term: "small"}},
		{If: []Clause{{Var: "x", Term: "lo"}, {Var: "y", Term: "on"}}, Then: Clause{Var: "z", Term: "large"}},
		{If: []Clause{{Var: "x", Term: "hi"}, {Var: "y", Term: "off"}}, Then: Clause{Var: "z", Term: "large"}},
		{If: []Clause{{Var: "x", Term: "hi"}, {Var: "y", Term: "on"}}, Then: Clause{Var: "z", Term: "small"}},
	}
	return mustTestEngine(t, []*Variable{x, y}, z, rules, opts...)
}

func TestSurfaceInterpolatesBetweenNodes(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(65))
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := 0; i <= 50; i++ {
		for j := 0; j <= 50; j++ {
			xv := 10 * (float64(i) + 0.37) / 51
			yv := (float64(j) + 0.61) / 51
			want, err := e.EvaluateVec(xv, yv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.EvaluateVec(xv, yv)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - want); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 0.02 {
		t.Fatalf("off-node interpolation error %v exceeds 0.02", maxErr)
	}
}

func TestSurfaceClampsLikeEngine(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(17))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2]float64{
		{-3, 0.5}, {42, 0.5}, {5, -1}, {5, 9}, {math.NaN(), 0.5}, {5, math.NaN()},
	}
	for _, c := range cases {
		want, err := e.EvaluateVec(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.EvaluateVec(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		// Clamped inputs land on universe-edge nodes, where the surface
		// is exact.
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("surface(%v, %v) = %v, engine = %v", c[0], c[1], got, want)
		}
	}
}

func TestSurfaceWorkerInvariance(t *testing.T) {
	e := surfTestEngine(t)
	s1, err := NewSurface(e, WithSurfaceGrid(21), WithSurfaceWorkers(1), WithSurfaceErrorMap(2))
	if err != nil {
		t.Fatal(err)
	}
	s7, err := NewSurface(e, WithSurfaceGrid(21), WithSurfaceWorkers(7), WithSurfaceErrorMap(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1.values, s7.values) {
		t.Fatal("value tables differ between 1 and 7 compile workers")
	}
	if !reflect.DeepEqual(s1.errs, s7.errs) {
		t.Fatal("error maps differ between 1 and 7 compile workers")
	}
}

func TestSurfacePinnedNodes(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(5), WithSurfaceNodes("x", 3.3, 7.7, -4, 40))
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.Axes()[0].Nodes()
	for _, pin := range []float64{3.3, 7.7} {
		found := false
		for _, n := range nodes {
			if n == pin {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pinned node %v missing from axis nodes %v", pin, nodes)
		}
		want, err := e.EvaluateVec(pin, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		// y = 0.5 is a grid node of the 5-point uniform subdivision, so
		// the query sits on a full grid node and must be exact.
		got, err := s.EvaluateVec(pin, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("surface at pinned %v = %v, engine = %v", pin, got, want)
		}
	}
	// Out-of-universe pins are dropped.
	if nodes[0] != 0 || nodes[len(nodes)-1] != 10 {
		t.Fatalf("universe endpoints clobbered: %v", nodes)
	}
}

func TestSurfaceErrorMap(t *testing.T) {
	e := surfTestEngine(t)
	plain, err := NewSurface(e, WithSurfaceGrid(9))
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasErrorMap() {
		t.Fatal("plain surface should not carry an error map")
	}
	_, bound, err := plain.EvaluateVecWithBound(4.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if bound != 0 {
		t.Fatalf("bound without error map = %v, want 0", bound)
	}

	mapped, err := NewSurface(e, WithSurfaceGrid(9), WithSurfaceErrorMap(1))
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.HasErrorMap() {
		t.Fatal("error map missing")
	}
	// At every cell centre the bound must cover the actual error by
	// construction (safety 1 makes it exactly the sampled error).
	axes := mapped.Axes()
	xs, ys := axes[0].Nodes(), axes[1].Nodes()
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2
			want, err := e.EvaluateVec(cx, cy)
			if err != nil {
				t.Fatal(err)
			}
			got, bound, err := mapped.EvaluateVecWithBound(cx, cy)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(got - want); diff > bound+1e-12 {
				t.Fatalf("centre (%v, %v): error %v exceeds bound %v", cx, cy, diff, bound)
			}
		}
	}
}

// alignedTestSurface pins y to tenths and declares it aligned, so the
// error map holds one bound per (x cell, y node).
func alignedTestSurface(t *testing.T, safety float64) (*Engine, *Surface) {
	t.Helper()
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9, 2),
		WithSurfaceNodes("y", 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
		WithSurfaceErrorMap(safety), WithSurfaceAlignedAxes("y"))
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

// TestSurfaceAlignedErrorMap: along an aligned axis the error map is
// indexed by node. On the nodes the bound covers the actual error at
// the probe points (safety 1 makes it exactly the sampled error), the
// map is dilated along x only, and off-node queries get no bound.
func TestSurfaceAlignedErrorMap(t *testing.T) {
	e, s := alignedTestSurface(t, 1)
	axes := s.Axes()
	xs, ys := axes[0].Nodes(), axes[1].Nodes()
	if len(ys) != 11 || len(s.errs) != (len(xs)-1)*len(ys) {
		t.Fatalf("error map has %d entries for %d x nodes and %d y nodes, want one per (x cell, y node)", len(s.errs), len(xs), len(ys))
	}
	var sampled []float64 // undilated centre errors, x cell-major
	for i := 0; i+1 < len(xs); i++ {
		cx := (xs[i] + xs[i+1]) / 2
		for _, y := range ys {
			want, err := e.EvaluateVec(cx, y)
			if err != nil {
				t.Fatal(err)
			}
			got, bound, err := s.EvaluateVecWithBound(cx, y)
			if err != nil {
				t.Fatal(err)
			}
			diff := math.Abs(got - want)
			if diff > bound {
				t.Fatalf("(%v, %v): error %v exceeds bound %v", cx, y, diff, bound)
			}
			sampled = append(sampled, diff)
		}
	}
	// Dilation along x: each bound is the max of its x neighbours'
	// samples at the same y node, never of another node's.
	for i := 0; i+1 < len(xs); i++ {
		for j, y := range ys {
			want := sampled[i*len(ys)+j]
			if i > 0 {
				want = math.Max(want, sampled[(i-1)*len(ys)+j])
			}
			if i+2 < len(xs) {
				want = math.Max(want, sampled[(i+1)*len(ys)+j])
			}
			_, bound, _ := s.EvaluateVecWithBound((xs[i]+xs[i+1])/2, y)
			if bound != want {
				t.Fatalf("x cell %d, y node %v: bound %v, want dilated %v", i, y, bound, want)
			}
		}
	}
	// Clamped inputs land on the end nodes; off-node ones have no bound.
	for _, q := range [][2]float64{{4.2, -1}, {4.2, 7}, {4.2, math.NaN()}, {-3, 1}} {
		if _, bound, _ := s.EvaluateVecWithBound(q[0], q[1]); math.IsInf(bound, 1) {
			t.Fatalf("clamped query %v has no bound", q)
		}
	}
	if _, bound, _ := s.EvaluateVecWithBound(4.2, 0.35); !math.IsInf(bound, 1) {
		t.Fatalf("off-node query bound = %v, want +Inf", bound)
	}
	// AxisRangeBounds: along x the bound is the max over the spanned x
	// cells at the y node; a range along the aligned y axis has none.
	_, rx, err := s.AxisRangeBounds(0, []float64{1, 9}, 4.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for x := 1.0; x <= 9; x += 0.05 {
		_, b, _ := s.EvaluateVecWithBound(x, 0.3)
		want = math.Max(want, b)
	}
	if rx != want {
		t.Fatalf("x range bound = %v, want %v", rx, want)
	}
	if _, b, _ := s.AxisRangeBounds(0, nil, 4.2, 0.35); !math.IsInf(b, 1) {
		t.Fatalf("x range at off-node y: bound %v, want +Inf", b)
	}
	if _, b, _ := s.AxisRangeBounds(1, nil, 4.2, 0.3); !math.IsInf(b, 1) {
		t.Fatalf("range along the aligned y axis: bound %v, want +Inf", b)
	}
}

// TestSurfaceAxisSlopeBound: with no extra points AxisRangeBounds
// reports the steepest edge of the query's own cell along the axis.
func TestSurfaceAxisSlopeBound(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{4.2, 0.3}
	for axis := 0; axis < 2; axis++ {
		got, _, err := s.AxisRangeBounds(axis, nil, q...)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force the same bound from node evaluations over the cell
		// edges parallel to the axis.
		axes := s.Axes()
		var lo [2]int
		for i := range axes {
			nodes := axes[i].Nodes()
			j := 0
			for j+2 < len(nodes) && nodes[j+1] <= q[i] {
				j++
			}
			lo[i] = j
		}
		var want float64
		other := 1 - axis
		otherNodes := axes[other].Nodes()
		axisNodes := axes[axis].Nodes()
		width := axisNodes[lo[axis]+1] - axisNodes[lo[axis]]
		for _, ov := range []float64{otherNodes[lo[other]], otherNodes[lo[other]+1]} {
			var pLo, pHi [2]float64
			pLo[axis], pHi[axis] = axisNodes[lo[axis]], axisNodes[lo[axis]+1]
			pLo[other], pHi[other] = ov, ov
			vLo, err := s.EvaluateVec(pLo[0], pLo[1])
			if err != nil {
				t.Fatal(err)
			}
			vHi, err := s.EvaluateVec(pHi[0], pHi[1])
			if err != nil {
				t.Fatal(err)
			}
			if slope := math.Abs(vHi-vLo) / width; slope > want {
				want = slope
			}
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("axis %d slope bound = %v, want %v", axis, got, want)
		}
	}
	if _, _, err := s.AxisRangeBounds(5, nil, q...); err == nil {
		t.Fatal("out-of-range axis should error")
	}
	if _, _, err := s.AxisRangeBounds(0, nil, 1); err == nil {
		t.Fatal("wrong arity should error")
	}
}

// TestSurfaceAxisRangeBounds: widening the interval must dominate the
// per-cell bounds of every cell it touches — this is what keeps a
// composed guard band sound when an upstream error can push the true
// input into a neighbouring cell.
func TestSurfaceAxisRangeBounds(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9), WithSurfaceErrorMap(2))
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{4.2, 0.3}
	const spread = 2.5 // spans several x cells on a 9-node grid over [0, 10]
	slope, bound, err := s.AxisRangeBounds(0, []float64{q[0] - spread, q[0] + spread}, q...)
	if err != nil {
		t.Fatal(err)
	}
	// Every cell inside the interval is dominated.
	for _, x := range []float64{q[0] - spread, q[0] - 1, q[0], q[0] + 1, q[0] + spread} {
		cellSlope, _, err := s.AxisRangeBounds(0, nil, x, q[1])
		if err != nil {
			t.Fatal(err)
		}
		if cellSlope > slope+1e-12 {
			t.Fatalf("range slope %v below cell slope %v at x=%v", slope, cellSlope, x)
		}
		_, cellBound, err := s.EvaluateVecWithBound(x, q[1])
		if err != nil {
			t.Fatal(err)
		}
		if cellBound > bound+1e-12 {
			t.Fatalf("range error bound %v below cell bound %v at x=%v", bound, cellBound, x)
		}
	}
	// Extra points inside the query's own cell add nothing.
	only, _, err := s.AxisRangeBounds(0, nil, q...)
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := s.AxisRangeBounds(0, []float64{q[0]}, q...)
	if err != nil {
		t.Fatal(err)
	}
	if only != same {
		t.Fatalf("range slope over the query point %v != single-cell slope %v", same, only)
	}
	if _, _, err := s.AxisRangeBounds(3, nil, q...); err == nil {
		t.Fatal("out-of-range axis should error")
	}
}

func TestSurfaceConstructionErrors(t *testing.T) {
	e := surfTestEngine(t)
	if _, err := NewSurface(nil); err == nil {
		t.Fatal("nil engine should error")
	}
	if _, err := NewSurface(e, WithSurfaceGrid(9, 9, 9)); err == nil {
		t.Fatal("grid arity mismatch should error")
	}
	if _, err := NewSurface(e, WithSurfaceGrid(1)); err == nil {
		t.Fatal("grid size < 2 should error")
	}
	if _, err := NewSurface(e, WithSurfaceNodes("nope", 1)); err == nil {
		t.Fatal("unknown pinned axis should error")
	}
	if _, err := NewSurface(e, WithSurfaceErrorMap(1), WithSurfaceAlignedAxes("nope")); err == nil {
		t.Fatal("unknown aligned axis should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSurface should panic on error")
		}
	}()
	MustSurface(e, WithSurfaceGrid(1))
}

func TestSurfaceAccessors(t *testing.T) {
	e := surfTestEngine(t)
	s, err := NewSurface(e, WithSurfaceGrid(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s.OutputName() != "z" {
		t.Fatalf("OutputName = %q", s.OutputName())
	}
	axes := s.Axes()
	if len(axes) != 2 || axes[0].Name != "x" || axes[1].Name != "y" {
		t.Fatalf("Axes = %+v", axes)
	}
	if axes[0].Min() != 0 || axes[0].Max() != 10 {
		t.Fatalf("axis 0 universe [%v, %v]", axes[0].Min(), axes[0].Max())
	}
	if got := axes[0].N() * axes[1].N(); got != s.NumNodes() {
		t.Fatalf("NumNodes = %d, axes product = %d", s.NumNodes(), got)
	}
	if !strings.HasPrefix(s.String(), "z[") {
		t.Fatalf("String = %q", s.String())
	}
	// Axes returns copies: mutating them must not corrupt the surface.
	axes[0].nodes[0] = 99
	if s.axes[0].nodes[0] != 0 {
		t.Fatal("Axes leaked internal node storage")
	}
	if _, err := s.EvaluateVec(1); err == nil {
		t.Fatal("wrong arity should error")
	}
	if _, _, err := s.EvaluateVecWithBound(1); err == nil {
		t.Fatal("wrong arity should error")
	}
}

func TestSurfaceTooManyInputs(t *testing.T) {
	vars := make([]*Variable, maxSurfaceDims+1)
	for i := range vars {
		vars[i] = MustVariable(strings.Repeat("v", i+1), 0, 1,
			Term{Name: "all", MF: MustTrapezoidal(math.Inf(-1), math.Inf(1), 0, 0)},
		)
	}
	out := MustVariable("out", 0, 1,
		Term{Name: "mid", MF: MustTrapezoidal(0, 1, 0, 0)},
	)
	e := MustEngine(vars, out, []Rule{
		{If: []Clause{{Var: "v", Term: "all"}}, Then: Clause{Var: "out", Term: "mid"}},
	})
	if _, err := NewSurface(e); err == nil {
		t.Fatal("more than maxSurfaceDims inputs should error")
	}
}
