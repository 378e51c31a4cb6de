package fuzzy

import (
	"math"
	"math/rand"
	"testing"
)

// enclosureEngines are the engines the enclosure property runs on: the
// paper's FLC1, and an engine with weighted rules, rules that omit
// inputs and clauses out of axis order.
func enclosureEngines(t *testing.T) []struct {
	name string
	e    *Engine
} {
	return []struct {
		name string
		e    *Engine
	}{{"flc1", paperFLC1(t)}, {"mixed", mixedEngine(t)}}
}

// randomBox draws a box of the engine's inputs: per axis a width from a
// point up to the whole universe (log-uniform in between), placed
// anywhere, sometimes reaching past a universe end; or a cell of a
// coarse compile grid, split in 2 or 4 along every axis, as the
// compiled FACS encloses them.
func randomBox(rng *rand.Rand, e *Engine, axes []SurfaceAxis) (lo, hi []float64) {
	d := len(e.inputs)
	lo, hi = make([]float64, d), make([]float64, d)
	grid := rng.Intn(3) == 0
	parts := []float64{1, 2, 4}[rng.Intn(3)]
	for i, v := range e.inputs {
		umin, umax := v.Universe()
		span := umax - umin
		if grid {
			nodes := axes[i].nodes
			j := rng.Intn(len(nodes) - 1)
			w := (nodes[j+1] - nodes[j]) / parts
			s := float64(rng.Intn(int(parts)))
			lo[i], hi[i] = nodes[j]+w*s, nodes[j]+w*(s+1)
			continue
		}
		var w float64
		switch r := rng.Intn(8); {
		case r == 0:
			w = 0
		case r == 1:
			w = span
		default:
			w = span * math.Pow(10, -7*rng.Float64())
		}
		a := umin - span/20 + rng.Float64()*(span*1.1-w)
		lo[i], hi[i] = a, a+w
	}
	return lo, hi
}

// boxPoints lists the points the property checks in a box: its
// corners, points on its edges, points through every breakpoint inside
// it, and random interior points.
func boxPoints(rng *rand.Rand, x *Enclosure, lo, hi []float64) [][]float64 {
	d := len(lo)
	inside := func() []float64 {
		p := make([]float64, d)
		for i := range p {
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		return p
	}
	var pts [][]float64
	for c := 0; c < 1<<d; c++ {
		corner := make([]float64, d)
		for i := range corner {
			corner[i] = lo[i]
			if c&(1<<i) != 0 {
				corner[i] = hi[i]
			}
		}
		pts = append(pts, corner)
		// An edge through the corner along each axis.
		for i := range d {
			p := append([]float64(nil), corner...)
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			pts = append(pts, p)
		}
	}
	off := 0
	for i, v := range x.e.inputs {
		a, b := v.Clamp(lo[i]), v.Clamp(hi[i])
		for k := range v.terms {
			for _, bp := range x.bps[off+k] {
				if bp > a && bp < b {
					p := inside()
					p[i] = bp
					pts = append(pts, p)
				}
			}
		}
		off += len(v.terms)
	}
	for range 8 {
		pts = append(pts, inside())
	}
	return pts
}

// TestEnclosureContainsEngine: EvaluateVec at corners, edges,
// breakpoints and random points of random boxes lies inside the box's
// enclosure, and a point box's enclosure is only the pad wide.
func TestEnclosureContainsEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range enclosureEngines(t) {
		name, e := tc.name, tc.e
		x, err := NewEnclosure(e)
		if err != nil {
			t.Fatal(err)
		}
		axes, err := GridAxes(e, WithSurfaceGrid(9))
		if err != nil {
			t.Fatal(err)
		}
		points := 0
		for range 3000 {
			lo, hi := randomBox(rng, e, axes)
			elo, ehi := x.Enclose(lo, hi)
			for _, p := range boxPoints(rng, x, lo, hi) {
				v, err := e.EvaluateVec(p...)
				if err != nil {
					t.Fatalf("%s: EvaluateVec(%v): %v", name, p, err)
				}
				if !(elo <= v && v <= ehi) {
					t.Fatalf("%s: EvaluateVec(%v) = %v (bits %#x) escapes the enclosure [%v, %v] of box %v–%v",
						name, p, v, math.Float64bits(v), elo, ehi, lo, hi)
				}
				points++
			}
			// The same point as a degenerate box.
			p := boxPoints(rng, x, lo, hi)[rng.Intn(1<<len(lo))]
			v, err := e.EvaluateVec(p...)
			if err != nil {
				t.Fatal(err)
			}
			plo, phi := x.Enclose(p, p)
			if !(plo <= v && v <= phi) || phi-plo > 4*x.pad {
				t.Fatalf("%s: point box %v: enclosure [%v, %v] (pad %v) against EvaluateVec %v", name, p, plo, phi, x.pad, v)
			}
		}
		t.Logf("%s: %d points inside their enclosures", name, points)
	}
}

// TestNewEnclosureRefuses: an enclosure needs the centroid defuzzifier
// and piecewise-linear input terms.
func TestNewEnclosureRefuses(t *testing.T) {
	for _, d := range []Defuzzifier{Bisector{}, MeanOfMaxima{}, NewWeightedAverage()} {
		if _, err := NewEnclosure(paperFLC1(t, WithDefuzzifier(d))); err == nil {
			t.Errorf("NewEnclosure accepted the %s defuzzifier", d.Name())
		}
	}
	x := MustVariable("x", 0, 1, Term{Name: "all", MF: flatMF{}})
	y := MustVariable("y", 0, 1, Term{Name: "all", MF: MustTriangular(0.5, 1, 1)})
	e := mustTestEngine(t, []*Variable{x}, y, []Rule{{If: []Clause{{"x", "all"}}, Then: Clause{"y", "all"}}})
	if _, err := NewEnclosure(e); err == nil {
		t.Error("NewEnclosure accepted a membership function that is neither triangular nor trapezoidal")
	}
	if _, err := NewEnclosure(nil); err == nil {
		t.Error("NewEnclosure accepted a nil engine")
	}
}

// flatMF is a membership function of neither enclosed shape.
type flatMF struct{}

func (flatMF) Membership(float64) float64  { return 1 }
func (flatMF) Support() (float64, float64) { return math.Inf(-1), math.Inf(1) }
func (flatMF) Kernel() (float64, float64)  { return math.Inf(-1), math.Inf(1) }

// TestEncloseZeroAllocs: an enclosure allocates nothing.
func TestEncloseZeroAllocs(t *testing.T) {
	x, err := NewEnclosure(paperFLC1(t))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := []float64{30, -10, 2}, []float64{32, 10, 2.5}
	if n := testing.AllocsPerRun(50, func() { x.Enclose(lo, hi) }); n != 0 {
		t.Fatalf("Enclose allocates %v times", n)
	}
}
