package facs

import (
	"math"
	"strings"
	"testing"

	"facs/internal/cac"
	"facs/internal/cell"
	"facs/internal/fuzzy"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

func newStation(t *testing.T) *cell.BaseStation {
	t.Helper()
	bs, err := cell.NewBaseStation(geo.Hex{}, geo.Point{}, cell.DefaultCapacityBU)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func fillBU(t *testing.T, bs *cell.BaseStation, bu int) {
	t.Helper()
	id := 10000
	for bu >= 10 {
		if err := bs.Admit(cell.Call{ID: id, Class: traffic.Video, BU: 10}); err != nil {
			t.Fatal(err)
		}
		id++
		bu -= 10
	}
	for bu >= 5 {
		if err := bs.Admit(cell.Call{ID: id, Class: traffic.Voice, BU: 5}); err != nil {
			t.Fatal(err)
		}
		id++
		bu -= 5
	}
	for bu > 0 {
		if err := bs.Admit(cell.Call{ID: id, Class: traffic.Text, BU: 1}); err != nil {
			t.Fatal(err)
		}
		id++
		bu--
	}
}

func goodObs() gps.Observation {
	return gps.Observation{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2}
}

func badObs() gps.Observation {
	return gps.Observation{SpeedKmh: 60, AngleDeg: 170, DistanceKm: 9}
}

func request(bs *cell.BaseStation, class traffic.Class, obs gps.Observation) cac.Request {
	return cac.Request{
		Call:    cell.Call{ID: 1, Class: class, BU: class.BandwidthUnits()},
		Station: bs,
		Obs:     obs,
	}
}

func TestSystemImplementsController(t *testing.T) {
	s := Must()
	if s.Name() != "facs" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.FLC1().NumRules() != 42 || s.FLC2().NumRules() != 27 {
		t.Fatal("engines not wired")
	}
	if s.AcceptThreshold() != DefaultAcceptThreshold {
		t.Fatalf("threshold = %v", s.AcceptThreshold())
	}
}

func TestDecideEmptyCellAcceptsEveryone(t *testing.T) {
	s := Must()
	for _, class := range traffic.Classes() {
		for _, obs := range []gps.Observation{goodObs(), badObs()} {
			bs := newStation(t)
			d, err := s.Decide(request(bs, class, obs))
			if err != nil {
				t.Fatal(err)
			}
			if d != cac.Accept {
				t.Fatalf("empty cell should accept %v (obs %+v)", class, obs)
			}
		}
	}
}

func TestDecideMidLoadDiscriminatesByPrediction(t *testing.T) {
	s := Must()
	bs := newStation(t)
	fillBU(t, bs, 20) // Cs exactly at the Middle kernel
	dGood, err := s.Decide(request(bs, traffic.Voice, goodObs()))
	if err != nil {
		t.Fatal(err)
	}
	dBad, err := s.Decide(request(bs, traffic.Voice, badObs()))
	if err != nil {
		t.Fatal(err)
	}
	if dGood != cac.Accept {
		t.Fatal("good prediction at mid load should accept")
	}
	if dBad != cac.Reject {
		t.Fatal("bad prediction at mid load should reject")
	}
}

func TestDecideFullCellRejectsEveryone(t *testing.T) {
	s := Must()
	bs := newStation(t)
	fillBU(t, bs, 40)
	for _, class := range traffic.Classes() {
		d, err := s.Decide(request(bs, class, goodObs()))
		if err != nil {
			t.Fatal(err)
		}
		if d != cac.Reject {
			t.Fatalf("full cell should reject %v", class)
		}
	}
}

func TestDecideRespectsPhysicalFit(t *testing.T) {
	s := Must()
	bs := newStation(t)
	fillBU(t, bs, 35) // 5 BU free: video cannot fit regardless of fuzzy outcome
	d, err := s.Decide(request(bs, traffic.Video, goodObs()))
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Reject {
		t.Fatal("call that cannot fit must be rejected")
	}
}

func TestDecideValidatesRequest(t *testing.T) {
	s := Must()
	if _, err := s.Decide(cac.Request{}); err == nil {
		t.Fatal("invalid request should error")
	}
}

func TestEvaluateTrace(t *testing.T) {
	s := Must()
	ev, err := s.Evaluate(goodObs(), 5, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cv < 0.8 {
		t.Fatalf("good observation should predict well, Cv = %v", ev.Cv)
	}
	if !ev.Accepted || ev.AR < DefaultAcceptThreshold {
		t.Fatalf("empty cell should accept: %+v", ev)
	}
	if ev.Grade != GradeAccept && ev.Grade != GradeWeakAccept {
		t.Fatalf("grade = %v, want an accepting grade", ev.Grade)
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	s := Must()
	cv, err := s.Predict(goodObs())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.Evaluate(goodObs(), 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if cv != ev.Cv {
		t.Fatalf("Predict (%v) != Evaluate.Cv (%v)", cv, ev.Cv)
	}
}

func TestGradeStringer(t *testing.T) {
	tests := []struct {
		g    Grade
		want string
	}{
		{GradeReject, "reject"},
		{GradeWeakReject, "weak-reject"},
		{GradeNRNA, "not-reject-not-accept"},
		{GradeWeakAccept, "weak-accept"},
		{GradeAccept, "accept"},
	}
	for _, tc := range tests {
		if got := tc.g.String(); got != tc.want {
			t.Errorf("Grade %d = %q, want %q", tc.g, got, tc.want)
		}
	}
	if !strings.Contains(Grade(99).String(), "99") {
		t.Error("unknown grade should include its value")
	}
}

func TestGradeFromTermMapping(t *testing.T) {
	tests := []struct {
		term string
		want Grade
	}{
		{TermReject, GradeReject},
		{TermWeakReject, GradeWeakReject},
		{TermNRNA, GradeNRNA},
		{TermWeakAccept, GradeWeakAccept},
		{TermAccept, GradeAccept},
		{"bogus", 0},
	}
	for _, tc := range tests {
		if got := gradeFromTerm(tc.term); got != tc.want {
			t.Errorf("gradeFromTerm(%q) = %v, want %v", tc.term, got, tc.want)
		}
	}
}

func TestWithAcceptThreshold(t *testing.T) {
	strict, err := New(WithAcceptThreshold(0.9))
	if err != nil {
		t.Fatal(err)
	}
	lax, err := New(WithAcceptThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	bs := newStation(t)
	fillBU(t, bs, 20)
	dStrict, err := strict.Decide(request(bs, traffic.Voice, goodObs()))
	if err != nil {
		t.Fatal(err)
	}
	dLax, err := lax.Decide(request(bs, traffic.Voice, badObs()))
	if err != nil {
		t.Fatal(err)
	}
	if dStrict != cac.Reject {
		t.Fatal("0.9 threshold should reject mid-load voice")
	}
	if dLax != cac.Accept {
		t.Fatal("-1 threshold should accept anything that fits")
	}
	for _, bad := range []float64{2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(WithAcceptThreshold(bad)); err == nil {
			t.Fatalf("threshold %v outside [-1,1] should error", bad)
		}
	}
}

func TestWithHandoffBias(t *testing.T) {
	s, err := New(WithHandoffBias(0.5))
	if err != nil {
		t.Fatal(err)
	}
	evNew, err := s.Evaluate(badObs(), 5, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	evHO, err := s.Evaluate(badObs(), 5, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if evHO.AR <= evNew.AR {
		t.Fatalf("handoff bias should raise AR: %v vs %v", evHO.AR, evNew.AR)
	}
	if evHO.AR > 1 {
		t.Fatalf("biased AR must stay within [-1, 1], got %v", evHO.AR)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(WithHandoffBias(bad)); err == nil {
			t.Fatalf("handoff bias %v should error", bad)
		}
	}
}

func TestWithDefuzzifierOption(t *testing.T) {
	wa, err := New(WithDefuzzifier(func() fuzzy.Defuzzifier { return fuzzy.NewWeightedAverage() }))
	if err != nil {
		t.Fatal(err)
	}
	centroid := Must()
	// Both configurations must agree on the easy calls.
	for _, tc := range []struct {
		obs  gps.Observation
		used int
		want bool
	}{
		{goodObs(), 0, true},
		{badObs(), 38, false},
	} {
		evWA, err := wa.Evaluate(tc.obs, 5, tc.used, false)
		if err != nil {
			t.Fatal(err)
		}
		evC, err := centroid.Evaluate(tc.obs, 5, tc.used, false)
		if err != nil {
			t.Fatal(err)
		}
		if evWA.Accepted != tc.want || evC.Accepted != tc.want {
			t.Fatalf("configs disagree on easy case %+v: wa=%v centroid=%v want=%v",
				tc.obs, evWA.Accepted, evC.Accepted, tc.want)
		}
	}
}

func TestWithParamsOption(t *testing.T) {
	p := DefaultParams()
	p.CapacityBU = 80
	s, err := New(WithParams(p))
	if err != nil {
		t.Fatal(err)
	}
	// With an 80 BU universe, Cs=40 is only "Middle", so a good user is
	// still accepted where the default config would refuse.
	ev, err := s.Evaluate(goodObs(), 5, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Accepted {
		t.Fatal("Cs=40 of 80 should be mid-load for the scaled controller")
	}
	evDefault, err := Must().Evaluate(goodObs(), 5, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	if evDefault.Accepted {
		t.Fatal("Cs=40 of 40 should reject for the default controller")
	}
}

func TestMustPanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must should panic on invalid options")
		}
	}()
	Must(WithAcceptThreshold(5))
}

func TestSystemConcurrentDecide(t *testing.T) {
	s := Must()
	bs := newStation(t)
	fillBU(t, bs, 20)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				if _, err := s.Decide(request(bs, traffic.Voice, goodObs())); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
