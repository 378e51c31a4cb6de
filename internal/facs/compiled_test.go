package facs

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/fuzzy"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

// Golden-equivalence suite: the compiled decision path against the
// exact Mamdani engines. Admission decisions must never differ: the
// suite asserts zero flips of cc.Decide against System.Decide across the
// paper's operating lattice and across randomized inputs, each request
// asked of a 40 BU station holding the sampled occupancy.

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

// goldenStation is a 40 BU base station whose occupancy the golden
// sets move between requests with 1 BU filler calls.
type goldenStation struct {
	bs  *cell.BaseStation
	ids []int
}

func newGoldenStation(t *testing.T) *goldenStation {
	t.Helper()
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, cell.DefaultCapacityBU)
	if err != nil {
		t.Fatal(err)
	}
	return &goldenStation{bs: bs}
}

// request returns a request for requestBU on the station, first
// admitting or releasing filler calls until it holds usedBU.
func (g *goldenStation) request(t *testing.T, obs gps.Observation, requestBU, usedBU int, handoff bool) cac.Request {
	t.Helper()
	for len(g.ids) < usedBU {
		id := len(g.ids) + 1
		if err := g.bs.Admit(cell.Call{ID: id, Class: traffic.Text, BU: 1}); err != nil {
			t.Fatal(err)
		}
		g.ids = append(g.ids, id)
	}
	for len(g.ids) > usedBU {
		if _, err := g.bs.Release(g.ids[len(g.ids)-1]); err != nil {
			t.Fatal(err)
		}
		g.ids = g.ids[:len(g.ids)-1]
	}
	class := map[int]traffic.Class{1: traffic.Text, 5: traffic.Voice, 10: traffic.Video}[requestBU]
	return cac.Request{
		Call:    cell.Call{ID: 1 << 20, Class: class, BU: requestBU},
		Station: g.bs,
		Obs:     obs,
		Handoff: handoff,
	}
}

// decideBoth returns the exact and the compiled decision on req.
func decideBoth(t *testing.T, sys *System, cc *CompiledController, req cac.Request) (exact, fast cac.Decision) {
	t.Helper()
	exact, err := sys.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	fast, err = cc.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	return exact, fast
}

func TestCompiledGoldenLattice(t *testing.T) {
	sys := Must()
	cc := goldenCompiled(t)
	st := newGoldenStation(t)
	var n, flips int
	paperLattice(func(obs gps.Observation, r, used int) {
		exact, fast := decideBoth(t, sys, cc, st.request(t, obs, r, used, false))
		n++
		if exact != fast {
			flips++
		}
	})
	if flips != 0 {
		t.Fatalf("paper lattice (%d points): %d decision flips; want zero", n, flips)
	}
	t.Logf("lattice: %d points, zero flips", n)
}

func TestCompiledGoldenRandom(t *testing.T) {
	sys := Must()
	cc := goldenCompiled(t)
	st := newGoldenStation(t)
	rng := rand.New(rand.NewSource(1907))
	const samples = 30000
	for i := 0; i < samples; i++ {
		obs := gps.Observation{
			SpeedKmh:   rng.Float64() * 120,
			AngleDeg:   rng.Float64()*360 - 180,
			DistanceKm: rng.Float64() * 10,
		}
		r := []int{1, 5, 10}[rng.Intn(3)]
		used := rng.Intn(41)
		handoff := rng.Intn(8) == 0
		if exact, fast := decideBoth(t, sys, cc, st.request(t, obs, r, used, handoff)); exact != fast {
			t.Fatalf("decision flip at %+v r=%d used=%d handoff=%v: exact %v, compiled %v",
				obs, r, used, handoff, exact, fast)
		}
	}
	t.Logf("random: %d samples, zero flips", samples)
}

// TestCompiledEvaluateIsExact: Evaluate returns System.Evaluate's
// Evaluation bit for bit, with and without a handoff bias, and counts
// exactly one exact evaluation.
func TestCompiledEvaluateIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cc := range []*CompiledController{goldenCompiled(t), goldenBiasedCompiled(t)} {
		sys := cc.System()
		for i := 0; i < 200; i++ {
			obs := gps.Observation{
				SpeedKmh:   rng.Float64() * 120,
				AngleDeg:   rng.Float64()*360 - 180,
				DistanceKm: rng.Float64() * 10,
			}
			r := []int{1, 5, 10}[rng.Intn(3)]
			used := rng.Intn(41)
			handoff := i%2 == 0
			want, err := sys.Evaluate(obs, r, used, handoff)
			if err != nil {
				t.Fatal(err)
			}
			f0, e0 := cc.Stats()
			got, err := cc.Evaluate(obs, r, used, handoff)
			if err != nil {
				t.Fatal(err)
			}
			if f1, e1 := cc.Stats(); f1 != f0 || e1 != e0+1 {
				t.Fatalf("Evaluate moved stats (%d, %d) -> (%d, %d), want one exact", f0, e0, f1, e1)
			}
			if math.Float64bits(got.Cv) != math.Float64bits(want.Cv) ||
				math.Float64bits(got.AR) != math.Float64bits(want.AR) ||
				got.Grade != want.Grade || got.Accepted != want.Accepted {
				t.Fatalf("Evaluate at %+v r=%d used=%d handoff=%v: compiled %+v, exact %+v",
					obs, r, used, handoff, got, want)
			}
		}
	}
}

// TestCompiledDecideMatchesSystem drives both controllers through the
// cac.Controller interface against a real base station, covering the
// capacity short-circuit, handoffs with and without a handoff bias, and
// stations above the 40 BU counter universe (whose occupancy FLC2
// clamps to its last row). At every request's exact Cv it also checks
// the accept table's point lookup, the exact fallback's first step,
// against exact FLC2.
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
	id, peak, points := 0, 0, 0
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
		// The exact fallback's point lookup: wherever the table holds
		// the exact Cv, its verdict is exact FLC2's.
		cv, err := sys.Predict(req.Obs)
		if err != nil {
			t.Fatal(err)
		}
		if accept, ok := cc.table.decide(req.Handoff, req.Call.BU, bs.Used(), cv, cv); ok {
			ev, err := sys.evaluateCv(cv, req.Call.BU, bs.Used(), req.Handoff)
			if err != nil {
				t.Fatal(err)
			}
			if accept != ev.Accepted {
				t.Fatalf("point lookup at exact Cv %v (%+v used=%d handoff=%v): table %v, exact FLC2 %v",
					cv, req.Obs, bs.Used(), req.Handoff, accept, ev.Accepted)
			}
			points++
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
	if points == 0 {
		t.Fatal("no point lookup at an exact Cv hit the table")
	}
}

// TestCompiledHandoffBias: a coarse 17-node grid with a handoff bias
// still never flips a decision — the looser error bounds send more
// requests to the exact engines instead.
func TestCompiledHandoffBias(t *testing.T) {
	sys, err := New(WithHandoffBias(0.5))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CompileSystem(sys, 17)
	if err != nil {
		t.Fatal(err)
	}
	st := newGoldenStation(t)
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
		if exact, fast := decideBoth(t, sys, cc, st.request(t, obs, r, used, handoff)); exact != fast {
			t.Fatalf("flip with bias at %+v r=%d used=%d handoff=%v: exact %v, compiled %v",
				obs, r, used, handoff, exact, fast)
		}
	}
	fast, exact := cc.Stats()
	if fast == 0 || exact == 0 {
		t.Fatalf("coarse grid should exercise both paths, got fast=%d exact=%d", fast, exact)
	}
	t.Logf("bias: fast=%d exact=%d", fast, exact)
}

// TestCompiledStats: a knife-edge request (exact A/R within 1e-3 of the
// accept threshold) must fall back to the exact engines, and an
// ordinary one settle on the surfaces.
func TestCompiledStats(t *testing.T) {
	cc, err := NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	f0, e0 := cc.Stats()
	if f0 != 0 || e0 != 0 {
		t.Fatalf("fresh controller stats = (%d, %d)", f0, e0)
	}
	st := newGoldenStation(t)
	// Knife edge: exact AR = 0.24999... (measured).
	knife := gps.Observation{SpeedKmh: 60, AngleDeg: 50, DistanceKm: 7}
	if _, err := cc.Decide(st.request(t, knife, 1, 15, false)); err != nil {
		t.Fatal(err)
	}
	if f, e := cc.Stats(); f != 0 || e != 1 {
		t.Fatalf("knife-edge decision did not take the exact fallback: stats (%d, %d)", f, e)
	}
	// Comfortable margin: deep reject.
	easy := gps.Observation{SpeedKmh: 110, AngleDeg: 180, DistanceKm: 9.5}
	if _, err := cc.Decide(st.request(t, easy, 10, 28, false)); err != nil {
		t.Fatal(err)
	}
	if f, e := cc.Stats(); f != 1 || e != 1 {
		t.Fatalf("easy decision did not settle on the surfaces: stats (%d, %d)", f, e)
	}
}

func TestCompiledConstructionErrors(t *testing.T) {
	if _, err := CompileSystem(nil, 0); err == nil {
		t.Fatal("nil system should error")
	}
	if _, err := NewCompiled(0, WithAcceptThreshold(5)); err == nil {
		t.Fatal("invalid option should propagate")
	}
	// FLC1 is enclosed, which needs the centroid defuzzifier.
	if _, err := NewCompiled(0, WithDefuzzifier(func() fuzzy.Defuzzifier { return fuzzy.Bisector{} })); err == nil {
		t.Fatal("a bisector FACS should not compile")
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

// TestCompiledDecideProbedFlip: on this request the probed FLC1 error
// bounds once let the compiled controller reject a 10 BU video call
// that the exact System accepts (exact Cv 0.7668160, interpolated
// 0.7657204), as a new call and as a handoff, on a 40 BU station
// holding 22 BU. A certified FLC1 range cannot flip it.
func TestCompiledDecideProbedFlip(t *testing.T) {
	obs := gps.Observation{SpeedKmh: 39.1700128105024, AngleDeg: 31.326128660410824, DistanceKm: 1.1196475942708606}
	sys, cc := Must(), goldenCompiled(t)
	st := newGoldenStation(t)
	for _, handoff := range []bool{false, true} {
		exact, fast := decideBoth(t, sys, cc, st.request(t, obs, 10, 22, handoff))
		if exact != cac.Accept || fast != exact {
			t.Errorf("handoff=%v: exact %v, compiled %v; want both to accept", handoff, exact, fast)
		}
	}
}
