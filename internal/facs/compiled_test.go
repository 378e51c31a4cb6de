package facs

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

// Golden-equivalence suite: the compiled lookup-table fast path against
// the exact Mamdani engines.
//
// Two guarantees are pinned here, with the tolerances the package
// documents:
//
//   - Admission decisions (Accepted) and soft grades (Grade) NEVER
//     differ from the exact System — the guard band re-runs the exact
//     engines whenever the interpolated A/R value is too close to a
//     decision boundary to be certain, so the suite asserts zero flips
//     across the paper's operating lattice and across randomized
//     inputs.
//   - The crisp Cv and A/R values carry a bounded interpolation error:
//     at the default grid the paper operating lattice stays within
//     latticeTol, and arbitrary in-universe inputs within globalTol
//     (the worst case sits on the diagonal creases of the min t-norm,
//     between grid nodes).
const (
	latticeTol = 0.012
	globalTol  = 0.07
)

// goldenCompiled returns the shared compiled default system, so the
// multi-second surface compilation is paid once per test binary.
func goldenCompiled(t *testing.T) *CompiledController {
	t.Helper()
	cc, err := DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// paperLattice enumerates the operating points of the paper's
// evaluation section: the Fig. 7 speeds, Fig. 8 angles (both signs),
// Fig. 9 distances, the three service-class bandwidths and the
// occupancy sweep of a 40 BU cell.
func paperLattice(visit func(obs gps.Observation, requestBU, usedBU int)) {
	speeds := []float64{4, 10, 30, 60}
	angles := []float64{0, 30, 50, 60, 90, -30, -50, -60, -90, 180}
	dists := []float64{1, 3, 7, 10}
	for _, s := range speeds {
		for _, a := range angles {
			for _, d := range dists {
				for _, r := range []int{1, 5, 10} {
					for used := 0; used <= 40; used += 2 {
						visit(gps.Observation{SpeedKmh: s, AngleDeg: a, DistanceKm: d}, r, used)
					}
				}
			}
		}
	}
}

func TestCompiledGoldenLattice(t *testing.T) {
	sys := Must()
	cc := goldenCompiled(t)
	var n, flips, gradeFlips int
	var maxCv, maxAR float64
	paperLattice(func(obs gps.Observation, r, used int) {
		exact, err := sys.Evaluate(obs, r, used, false)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := cc.Evaluate(obs, r, used, false)
		if err != nil {
			t.Fatal(err)
		}
		n++
		if exact.Accepted != fast.Accepted {
			flips++
		}
		if exact.Grade != fast.Grade {
			gradeFlips++
		}
		maxCv = math.Max(maxCv, math.Abs(exact.Cv-fast.Cv))
		maxAR = math.Max(maxAR, math.Abs(exact.AR-fast.AR))
	})
	if flips != 0 || gradeFlips != 0 {
		t.Fatalf("paper lattice (%d points): %d accept flips, %d grade flips; want zero",
			n, flips, gradeFlips)
	}
	if maxCv > latticeTol || maxAR > latticeTol {
		t.Fatalf("paper lattice: max |dCv| = %v, max |dAR| = %v exceed documented %v",
			maxCv, maxAR, latticeTol)
	}
	t.Logf("lattice: %d points, zero flips, max |dCv| = %.5f, max |dAR| = %.5f", n, maxCv, maxAR)
}

func TestCompiledGoldenRandom(t *testing.T) {
	sys := Must()
	cc := goldenCompiled(t)
	rng := rand.New(rand.NewSource(1907))
	const samples = 30000
	var maxCv, maxAR float64
	for i := 0; i < samples; i++ {
		obs := gps.Observation{
			SpeedKmh:   rng.Float64() * 120,
			AngleDeg:   rng.Float64()*360 - 180,
			DistanceKm: rng.Float64() * 10,
		}
		r := []int{1, 5, 10}[rng.Intn(3)]
		used := rng.Intn(41)
		handoff := rng.Intn(8) == 0
		exact, err := sys.Evaluate(obs, r, used, handoff)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := cc.Evaluate(obs, r, used, handoff)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Accepted != fast.Accepted {
			t.Fatalf("decision flip at %+v r=%d used=%d: exact AR %v, fast AR %v",
				obs, r, used, exact.AR, fast.AR)
		}
		if exact.Grade != fast.Grade {
			t.Fatalf("grade flip at %+v r=%d used=%d: exact %v, fast %v",
				obs, r, used, exact.Grade, fast.Grade)
		}
		maxCv = math.Max(maxCv, math.Abs(exact.Cv-fast.Cv))
		maxAR = math.Max(maxAR, math.Abs(exact.AR-fast.AR))
	}
	if maxCv > globalTol || maxAR > globalTol {
		t.Fatalf("random sweep: max |dCv| = %v, max |dAR| = %v exceed documented %v",
			maxCv, maxAR, globalTol)
	}
	t.Logf("random: %d samples, zero flips, max |dCv| = %.5f, max |dAR| = %.5f", samples, maxCv, maxAR)
}

// TestCompiledExactAtNodes: on the grid nodes of the prediction
// surface the fast path reproduces the exact engine bit-for-bit (up to
// float summation noise).
func TestCompiledExactAtNodes(t *testing.T) {
	sys := Must()
	cc := goldenCompiled(t)
	axes := cc.FLC1Surface().Axes()
	sNodes, aNodes, dNodes := axes[0].Nodes(), axes[1].Nodes(), axes[2].Nodes()
	for i := 0; i < len(sNodes); i += 8 {
		for j := 0; j < len(aNodes); j += 8 {
			for k := 0; k < len(dNodes); k += 8 {
				obs := gps.Observation{SpeedKmh: sNodes[i], AngleDeg: aNodes[j], DistanceKm: dNodes[k]}
				want, err := sys.Predict(obs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cc.Predict(obs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("node (%v, %v, %v): compiled %v, exact %v",
						obs.SpeedKmh, obs.AngleDeg, obs.DistanceKm, got, want)
				}
			}
		}
	}
}

// TestCompiledDecideMatchesSystem drives both controllers through the
// cac.Controller interface against a real base station, covering the
// capacity short-circuit, handoffs with and without a handoff bias, and
// stations above the 40 BU counter universe (whose occupancy FLC2
// clamps to its last row).
func TestCompiledDecideMatchesSystem(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cc       *CompiledController
		capacity int
	}{
		{"default", goldenCompiled(t), cell.DefaultCapacityBU},
		{"handoff-bias", goldenBiasedCompiled(t), cell.DefaultCapacityBU},
		{"over-capacity", goldenCompiled(t), 120},
		{"over-capacity-handoff-bias", goldenBiasedCompiled(t), 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compiledDecideMatchesSystem(t, tc.cc, tc.capacity)
		})
	}
}

func compiledDecideMatchesSystem(t *testing.T, cc *CompiledController, capacity int) {
	sys := cc.System()
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	id, peak := 0, 0
	for trial := 0; trial < 2000; trial++ {
		// Random occupancy between trials: FACS itself stops admitting
		// well below 40 BU, so filler calls take the station anywhere
		// up to 10 BU short of its capacity.
		if bs.Used() > capacity-10 || rng.Intn(3) == 0 {
			for _, c := range bs.Calls() {
				if _, err := bs.Release(c.ID); err != nil {
					t.Fatal(err)
				}
			}
			for target := rng.Intn(capacity - 9); bs.Used() < target; id++ {
				if err := bs.Admit(cell.Call{ID: 1000 + id, Class: traffic.Text, BU: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		peak = max(peak, bs.Used())
		class := []traffic.Class{traffic.Text, traffic.Voice, traffic.Video}[rng.Intn(3)]
		req := cac.Request{
			Call: cell.Call{
				ID:    1000 + id,
				Class: class,
				BU:    class.BandwidthUnits(),
			},
			Station: bs,
			Obs: gps.Observation{
				SpeedKmh:   rng.Float64() * 120,
				AngleDeg:   rng.Float64()*360 - 180,
				DistanceKm: rng.Float64() * 10,
			},
			Handoff: rng.Intn(4) == 0,
		}
		id++
		want, err := sys.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Decide mismatch at %+v used=%d handoff=%v: exact %v, compiled %v",
				req.Obs, bs.Used(), req.Handoff, want, got)
		}
		if want.Accepted() {
			if err := bs.Admit(req.Call); err != nil {
				t.Fatal(err)
			}
		}
	}
	if capacity > cell.DefaultCapacityBU && peak <= cell.DefaultCapacityBU {
		t.Fatalf("occupancy peaked at %d BU, never above the %d BU counter universe", peak, cell.DefaultCapacityBU)
	}
}

// TestCompiledHandoffBias: a coarse 17-node grid with a handoff bias
// still never flips a decision or grade — the guard band absorbs the
// larger interpolation error by falling back more often.
func TestCompiledHandoffBias(t *testing.T) {
	sys, err := New(WithHandoffBias(0.5))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CompileSystem(sys, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		obs := gps.Observation{
			SpeedKmh:   rng.Float64() * 120,
			AngleDeg:   rng.Float64()*360 - 180,
			DistanceKm: rng.Float64() * 10,
		}
		r := []int{1, 5, 10}[rng.Intn(3)]
		used := rng.Intn(41)
		handoff := i%2 == 0
		exact, err := sys.Evaluate(obs, r, used, handoff)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := cc.Evaluate(obs, r, used, handoff)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Accepted != fast.Accepted || exact.Grade != fast.Grade {
			t.Fatalf("flip with bias at %+v r=%d used=%d handoff=%v: exact (%v, %v), fast (%v, %v)",
				obs, r, used, handoff, exact.Grade, exact.Accepted, fast.Grade, fast.Accepted)
		}
	}
	fast, exact := cc.Stats()
	if fast == 0 || exact == 0 {
		t.Fatalf("coarse grid should exercise both paths, got fast=%d exact=%d", fast, exact)
	}
}

// TestCompiledStats: the knife-edge plateau of the admission surface
// (exact A/R within 1e-3 of the accept threshold) must route through
// the exact fallback, and ordinary points through the fast path.
func TestCompiledStats(t *testing.T) {
	cc, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	f0, e0 := cc.Stats()
	if f0 != 0 || e0 != 0 {
		t.Fatalf("fresh controller stats = (%d, %d)", f0, e0)
	}
	// Knife edge: exact AR = 0.24999... (measured), guard must trigger.
	knife := gps.Observation{SpeedKmh: 60, AngleDeg: 50, DistanceKm: 7}
	if _, err := cc.Evaluate(knife, 1, 15, false); err != nil {
		t.Fatal(err)
	}
	if _, e := cc.Stats(); e != 1 {
		t.Fatalf("knife-edge evaluation did not take the exact fallback: stats %v", e)
	}
	// Comfortable margin: deep reject.
	easy := gps.Observation{SpeedKmh: 110, AngleDeg: 180, DistanceKm: 9.5}
	if _, err := cc.Evaluate(easy, 10, 38, false); err != nil {
		t.Fatal(err)
	}
	if f, _ := cc.Stats(); f != 1 {
		t.Fatalf("easy evaluation did not take the fast path: stats %v", f)
	}
}

func TestCompiledConstructionErrors(t *testing.T) {
	if _, err := CompileSystem(nil, 0); err == nil {
		t.Fatal("nil system should error")
	}
	if _, err := NewCompiled(0, WithAcceptThreshold(5)); err == nil {
		t.Fatal("invalid option should propagate")
	}
}

func TestCompiledAccessors(t *testing.T) {
	cc := goldenCompiled(t)
	if cc.Name() != "facs-compiled" {
		t.Fatalf("Name = %q", cc.Name())
	}
	if cc.System() == nil || cc.FLC1Surface() == nil || cc.FLC2Surface() == nil {
		t.Fatal("nil accessors")
	}
	if cc.AcceptThreshold() != DefaultAcceptThreshold {
		t.Fatalf("AcceptThreshold = %v", cc.AcceptThreshold())
	}
	if got := cc.FLC1Surface().String(); !strings.HasPrefix(got, "Cv[") {
		t.Fatalf("FLC1 surface = %q", got)
	}
	// The admission surface pins every integral bandwidth unit.
	csAxis := cc.FLC2Surface().Axes()[2]
	nodes := csAxis.Nodes()
	for want := 0.0; want <= 40; want++ {
		found := false
		for _, n := range nodes {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("counter axis misses integer node %v", want)
		}
	}
}

func TestDefaultCompiledShared(t *testing.T) {
	a, err := DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultCompiled()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("DefaultCompiled should return the shared instance")
	}
}

// TestGradeBoundaries: the scanned grade switch points of the default
// A/R variable sit at the membership crossings: shoulder/triangle
// pairs cross at +-0.625, the symmetric inner triangles at +-0.25.
func TestGradeBoundaries(t *testing.T) {
	sys := Must()
	got := gradeBoundaries(sys.FLC2().Output())
	want := []float64{-0.625, -0.25, 0.25, 0.625}
	if len(got) != len(want) {
		t.Fatalf("boundaries = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("boundary %d = %v, want %v", i, got[i], want[i])
		}
	}
}
