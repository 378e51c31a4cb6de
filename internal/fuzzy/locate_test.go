package fuzzy_test

import (
	"math"
	"math/rand"
	"testing"

	"facs/internal/facs"
	"facs/internal/fuzzy"
)

// binarySearchLocate is the oracle for the guided locate: a binary
// search for nodes[j] <= x < nodes[j+1], with the universe clamping of
// Variable.Clamp (NaN clamps low) and f clamped to [0, 1].
func binarySearchLocate(nodes []float64, x float64) (int, float64) {
	if !(x > nodes[0]) {
		return 0, 0
	}
	last := len(nodes) - 1
	if x >= nodes[last] {
		return last - 1, 1
	}
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if nodes[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	f := (x - nodes[lo]) / (nodes[lo+1] - nodes[lo])
	return lo, math.Min(math.Max(f, 0), 1)
}

// TestGuidedLocateMatchesBinarySearch checks the guided locate of every
// FLC1 and FLC2 axis, and of an axis whose pinned nodes crowd many into
// one guide bucket, against binary search. It probes every node, one
// ulp either side of it, every cell midpoint, both universe ends and
// beyond, ±Inf, NaN, and 100k random coordinates over the universe
// widened by a quarter of its span on each side. (j, f) must agree bit
// for bit.
func TestGuidedLocateMatchesBinarySearch(t *testing.T) {
	cc, err := facs.DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	axes := map[string][]fuzzy.SurfaceAxis{
		"FLC1":    cc.FLC1Surface().Axes(),
		"FLC2":    cc.FLC2Surface().Axes(),
		"crowded": crowdedSurface(t).Axes(),
	}
	rng := rand.New(rand.NewSource(26))
	for name, list := range axes {
		for _, ax := range list {
			nodes := ax.Nodes()
			lo, hi := ax.Min(), ax.Max()
			span := hi - lo
			xs := []float64{lo, hi, lo - 1, hi + 1, math.Inf(-1), math.Inf(1), math.NaN()}
			for k, x := range nodes {
				xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
				if k+1 < len(nodes) {
					xs = append(xs, (x+nodes[k+1])/2)
				}
			}
			for range 100_000 {
				xs = append(xs, lo-span/4+rng.Float64()*span*1.5)
			}
			for _, x := range xs {
				j, f := ax.Locate(x)
				wj, wf := binarySearchLocate(nodes, x)
				if j != wj || math.Float64bits(f) != math.Float64bits(wf) {
					t.Fatalf("%s axis %s at %v: guided (%d, %v), binary search (%d, %v)", name, ax.Name, x, j, f, wj, wf)
				}
			}
		}
	}
}

// crowdedSurface compiles a one-input surface whose grid is three
// uniform nodes plus 40 pinned ones packed into a 4e-6 wide run, so a
// guide bucket holds dozens of nodes.
func crowdedSurface(t *testing.T) *fuzzy.Surface {
	t.Helper()
	x := fuzzy.MustVariable("x", 0, 10,
		fuzzy.Term{Name: "lo", MF: fuzzy.MustTriangular(0, 0, 10)},
		fuzzy.Term{Name: "hi", MF: fuzzy.MustTriangular(10, 10, 0)},
	)
	y := fuzzy.MustVariable("y", 0, 1,
		fuzzy.Term{Name: "small", MF: fuzzy.MustTriangular(0, 0, 1)},
		fuzzy.Term{Name: "large", MF: fuzzy.MustTriangular(1, 1, 0)},
	)
	e := fuzzy.MustEngine([]*fuzzy.Variable{x}, y, []fuzzy.Rule{
		{If: []fuzzy.Clause{{Var: "x", Term: "lo"}}, Then: fuzzy.Clause{Var: "y", Term: "small"}},
		{If: []fuzzy.Clause{{Var: "x", Term: "hi"}}, Then: fuzzy.Clause{Var: "y", Term: "large"}},
	})
	pinned := make([]float64, 40)
	for i := range pinned {
		pinned[i] = 3 + float64(i)*1e-7
	}
	s := fuzzy.MustSurface(e, fuzzy.WithSurfaceGrid(3), fuzzy.WithSurfaceNodes("x", pinned...))
	if n := s.Axes()[0].N(); n != 3+len(pinned) {
		t.Fatalf("crowded axis has %d nodes, want %d", n, 3+len(pinned))
	}
	return s
}
