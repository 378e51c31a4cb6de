package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// mixedEngine has weighted rules, rules that omit inputs (the last one
// among them), and clauses written out of axis order, so the compile
// evaluator's per-axis rule levels do not follow the written clauses.
// The single-clause rules on a cover its universe with positive
// weight, so some rule always fires.
func mixedEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	a := MustVariable("a", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 5)},
		Term{Name: "mid", MF: MustTriangular(5, 5, 5)},
		Term{Name: "hi", MF: MustTriangular(10, 5, 0)},
	)
	b := MustVariable("b", -1, 1,
		Term{Name: "neg", MF: MustLeftShoulder(-0.25, 0.75)},
		Term{Name: "pos", MF: MustRightShoulder(0.25, 0.75)},
	)
	c := MustVariable("c", 0, 4,
		Term{Name: "lo", MF: MustTriangular(0, 0, 3)},
		Term{Name: "hi", MF: MustTriangular(4, 3, 0)},
	)
	z := MustVariable("z", 0, 1,
		Term{Name: "z1", MF: MustTriangular(0, 0, 0.3)},
		Term{Name: "z2", MF: MustTriangular(0.25, 0.2, 0.2)},
		Term{Name: "z3", MF: MustTriangular(0.5, 0.25, 0.25)},
		Term{Name: "z4", MF: MustTrapezoidal(0.7, 0.8, 0.1, 0.1)},
		Term{Name: "z5", MF: MustTriangular(1, 0.3, 0)},
	)
	rules := []Rule{
		{If: []Clause{{"a", "lo"}}, Then: Clause{"z", "z1"}, Weight: 0.6},
		{If: []Clause{{"a", "mid"}}, Then: Clause{"z", "z3"}, Weight: 0.5},
		{If: []Clause{{"a", "hi"}}, Then: Clause{"z", "z5"}, Weight: 0.6},
		{If: []Clause{{"b", "neg"}, {"a", "lo"}}, Then: Clause{"z", "z2"}},
		{If: []Clause{{"c", "hi"}, {"b", "pos"}, {"a", "mid"}}, Then: Clause{"z", "z4"}, Weight: 0.9},
		{If: []Clause{{"a", "hi"}, {"c", "lo"}}, Then: Clause{"z", "z2"}, Weight: 0.8},
		{If: []Clause{{"c", "lo"}, {"a", "mid"}, {"b", "neg"}}, Then: Clause{"z", "z5"}},
		{If: []Clause{{"b", "pos"}, {"c", "hi"}}, Then: Clause{"z", "z3"}, Weight: 0.3},
	}
	return mustTestEngine(t, []*Variable{a, b, c}, z, rules, opts...)
}

// compileCase is one engine and surface configuration of the
// compilation bit-identity tests.
type compileCase struct {
	name  string
	build func(*testing.T, ...Option) *Engine
	opts  []SurfaceOption
}

func compileCases() []compileCase {
	return []compileCase{
		{"surf", surfTestEngine, []SurfaceOption{WithSurfaceGrid(9, 7)}},
		{"flc1", paperFLC1, []SurfaceOption{WithSurfaceGrid(17), WithSurfaceErrorMap(1.5)}},
		{"flc2", paperFLC2, []SurfaceOption{WithSurfaceGrid(17, 2, 2),
			WithSurfaceNodes("R", 1, 2, 3, 4, 6, 7, 8, 9), WithSurfaceNodes("Cs", 4, 8, 12, 16, 24, 28, 32, 36),
			WithSurfaceErrorMap(1.5), WithSurfaceAlignedAxes("R", "Cs")}},
		{"smooth", smoothEngine, []SurfaceOption{WithSurfaceGrid(23, 17), WithSurfaceErrorMap(2)}},
		{"mixed", mixedEngine, []SurfaceOption{WithSurfaceGrid(9, 7, 6), WithSurfaceErrorMap(2), WithSurfaceAlignedAxes("b")}},
	}
}

// builtinDefuzzifiers returns a fresh instance of every built-in
// defuzzifier; a WeightedAverage binds to the first engine it serves.
func builtinDefuzzifiers() []Defuzzifier {
	return []Defuzzifier{Centroid{}, Bisector{}, MeanOfMaxima{}, NewWeightedAverage()}
}

// compileGrid returns the grid nodes NewSurface builds for e under
// opts, axis by axis, and the options as NewSurface reads them.
func compileGrid(e *Engine, opts []SurfaceOption) ([][]float64, surfaceCompiler) {
	var c surfaceCompiler
	for _, opt := range opts {
		opt(&c)
	}
	grid := make([][]float64, len(e.inputs))
	for i, v := range e.inputs {
		n := DefaultSurfaceGridSize
		switch len(c.grid) {
		case 1:
			n = c.grid[0]
		case len(e.inputs):
			n = c.grid[i]
		}
		grid[i] = axisNodes(v, n, c.extra[v.Name()])
	}
	return grid, c
}

// forEachNode visits every grid node in row-major order (the last axis
// fastest), the order compilation fills the value table in.
func forEachNode(grid [][]float64, visit func(vals []float64)) {
	idx := make([]int, len(grid))
	vals := make([]float64, len(grid))
	for {
		for k, j := range idx {
			vals[k] = grid[k][j]
		}
		visit(vals)
		k := len(idx) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < len(grid[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// referenceErrorMap builds a surface's error map the naive way: the
// exact engine at every probe (the node along aligned axes, the cell
// centre along the others), |exact - interpolated| * safety, then the
// maximum over each entry's 3^k neighbourhood along the k unaligned
// axes.
func referenceErrorMap(t *testing.T, e *Engine, s *Surface, safety float64) []float64 {
	t.Helper()
	d := len(s.axes)
	shape := make([]int, d)
	for k := range shape {
		shape[k] = s.errShape(k)
	}
	raw := make([]float64, len(s.errs))
	idx := make([]int, d)
	probe := make([]float64, d)
	for n := range raw {
		rem := n
		for k := d - 1; k >= 0; k-- {
			idx[k] = rem % shape[k]
			rem /= shape[k]
			nodes := s.axes[k].nodes
			if s.aligned&(1<<k) != 0 {
				probe[k] = nodes[idx[k]]
			} else {
				probe[k] = (nodes[idx[k]] + nodes[idx[k]+1]) / 2
			}
		}
		exact, err := e.EvaluateVec(probe...)
		if err != nil {
			t.Fatal(err)
		}
		approx, _ := s.EvaluateVec(probe...)
		raw[n] = math.Abs(exact-approx) * safety
	}
	out := make([]float64, len(raw))
	for n := range out {
		rem := n
		for k := d - 1; k >= 0; k-- {
			idx[k] = rem % shape[k]
			rem /= shape[k]
		}
		var best float64
		// Enumerate offsets in {-1, 0, 1}^d; aligned axes stay at 0.
		for o := 0; o < int(math.Pow(3, float64(d))); o++ {
			m, off, ok := 0, o, true
			for k := 0; k < d; k++ {
				dk := off%3 - 1
				off /= 3
				if s.aligned&(1<<k) != 0 && dk != 0 {
					ok = false
					break
				}
				j := idx[k] + dk
				if j < 0 || j >= shape[k] {
					ok = false
					break
				}
				m = m*shape[k] + j
			}
			if ok && raw[m] > best {
				best = raw[m]
			}
		}
		out[n] = best
	}
	return out
}

// compileError is the error NewSurface reports when its value pass
// fails at vals.
func compileError(vals []float64, err error) string {
	return fmt.Errorf("fuzzy: compiling surface at %v: %w", vals, err).Error()
}

// TestSurfaceExactAtNodes pins compilation to oracles bit for bit. At
// every grid node, in compile order, the compile evaluator must return
// EvaluateVec's float bits or its exact error, and EvaluateVec the
// At-based reference's. A compiled surface, at 1 and 3 workers, must
// hold EvaluateVec's bits at every node, answer a query at every node
// with them, and hold an error map equal bit for bit to
// referenceErrorMap; an engine that fails somewhere must fail to
// compile with the error of its first failing node.
func TestSurfaceExactAtNodes(t *testing.T) {
	for _, c := range compileCases() {
		for _, d := range builtinDefuzzifiers() {
			e := c.build(t, WithDefuzzifier(d))
			name := c.name + "/" + d.Name()
			grid, sc := compileGrid(e, c.opts)
			g := newGridEval(e)
			var want []float64
			var firstErr string
			forEachNode(grid, func(vals []float64) {
				exact, exactErr := e.EvaluateVec(vals...)
				got, gotErr := g.eval(vals)
				if !sameResult(got, gotErr, exact, exactErr) {
					t.Fatalf("%s: compile evaluator at %v = %v, %v; EvaluateVec %v, %v", name, vals, got, gotErr, exact, exactErr)
				}
				if _, ok := d.(*WeightedAverage); !ok {
					agg, err := e.Infer(vals)
					if err != nil {
						t.Fatal(err)
					}
					ref, refErr := referenceDefuzzify(d, agg, engineResolution)
					if !sameResult(exact, exactErr, ref, refErr) {
						t.Fatalf("%s: EvaluateVec(%v) = %v, %v; reference %v, %v", name, vals, exact, exactErr, ref, refErr)
					}
				}
				if exactErr != nil && firstErr == "" {
					firstErr = compileError(vals, exactErr)
				}
				want = append(want, exact)
			})
			if g.memo != nil && g.hits == 0 {
				t.Errorf("%s: the compile evaluator's memo never hit over %d nodes", name, len(want))
			}
			for _, workers := range []int{1, 3} {
				s, err := NewSurface(e, append(c.opts, WithSurfaceWorkers(workers))...)
				if firstErr != "" {
					if err == nil || err.Error() != firstErr {
						t.Fatalf("%s, %d workers: NewSurface error %v, want %s", name, workers, err, firstErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s, %d workers: %v", name, workers, err)
				}
				for n, y := range s.values {
					if math.Float64bits(y) != math.Float64bits(want[n]) {
						t.Fatalf("%s, %d workers: node %d = %v, EvaluateVec %v", name, workers, n, y, want[n])
					}
				}
				// A query at a node interpolates with one corner weight
				// 1 and the others 0, so it returns the node's bits,
				// except that a -0 node sums to +0.
				n := 0
				forEachNode(grid, func(vals []float64) {
					got, err := s.EvaluateVec(vals...)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want[n]) && !(got == 0 && want[n] == 0) {
						t.Fatalf("%s, %d workers: Surface.EvaluateVec(%v) = %v, EvaluateVec %v", name, workers, vals, got, want[n])
					}
					n++
				})
				ref := referenceErrorMap(t, e, s, sc.safety)
				for n, b := range s.errs {
					if math.Float64bits(b) != math.Float64bits(ref[n]) {
						t.Fatalf("%s, %d workers: error map entry %d = %v, reference %v", name, workers, n, b, ref[n])
					}
				}
			}
		}
	}
}

// TestSurfaceCompileErrorIsLowestNode: where no rule fires, NewSurface
// fails with the error of the first failing node in row-major order,
// whatever the worker count and with or without an error map. Many
// slabs fail, so every worker count races several failures. The
// compile evaluator meets the same strength vector at many failing
// nodes; it must fail at each, so errors never enter its memo.
func TestSurfaceCompileErrorIsLowestNode(t *testing.T) {
	e := smoothEngine(t)
	opts := []SurfaceOption{WithSurfaceGrid(31, 17)}
	var want string
	failures := 0
	g := newGridEval(e)
	grid, _ := compileGrid(e, opts)
	forEachNode(grid, func(vals []float64) {
		exact, exactErr := e.EvaluateVec(vals...)
		got, gotErr := g.eval(vals)
		if !sameResult(got, gotErr, exact, exactErr) {
			t.Fatalf("compile evaluator at %v = %v, %v; EvaluateVec %v, %v", vals, got, gotErr, exact, exactErr)
		}
		if exactErr != nil {
			failures++
			if want == "" {
				want = compileError(vals, exactErr)
			}
		}
	})
	if failures < 10 {
		t.Fatalf("only %d failing nodes; the test needs many", failures)
	}
	for _, workers := range []int{1, 2, 7} {
		for _, errMap := range []bool{false, true} {
			o := append(opts, WithSurfaceWorkers(workers))
			if errMap {
				o = append(o, WithSurfaceErrorMap(2))
			}
			for rep := 0; rep < 5; rep++ {
				_, err := NewSurface(e, o...)
				if err == nil || err.Error() != want {
					t.Fatalf("%d workers, error map %v: NewSurface error %v, want %s", workers, errMap, err, want)
				}
				if !errors.Is(err, ErrNoRuleFired) {
					t.Fatalf("%d workers: error %v does not wrap ErrNoRuleFired", workers, err)
				}
			}
		}
	}
}
