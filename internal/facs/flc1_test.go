package facs

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFRB1MatchesPaperTable1 pins the full 42-rule base against an
// independently transcribed copy of the paper's Table 1 (keyed by rule
// number rather than by struct order, so a transposition in either copy
// fails the test).
func TestFRB1MatchesPaperTable1(t *testing.T) {
	// rule -> "S A D Cv" transcription of Table 1.
	want := map[int][4]string{
		0:  {"Sl", "B1", "N", "Cv3"},
		1:  {"Sl", "B1", "F", "Cv1"},
		2:  {"Sl", "L1", "N", "Cv4"},
		3:  {"Sl", "L1", "F", "Cv2"},
		4:  {"Sl", "L2", "N", "Cv5"},
		5:  {"Sl", "L2", "F", "Cv3"},
		6:  {"Sl", "St", "N", "Cv9"},
		7:  {"Sl", "St", "F", "Cv3"},
		8:  {"Sl", "R1", "N", "Cv5"},
		9:  {"Sl", "R1", "F", "Cv2"},
		10: {"Sl", "R2", "N", "Cv4"},
		11: {"Sl", "R2", "F", "Cv2"},
		12: {"Sl", "B2", "N", "Cv3"},
		13: {"Sl", "B2", "F", "Cv1"},
		14: {"M", "B1", "N", "Cv2"},
		15: {"M", "B1", "F", "Cv1"},
		16: {"M", "L1", "N", "Cv4"},
		17: {"M", "L1", "F", "Cv1"},
		18: {"M", "L2", "N", "Cv8"},
		19: {"M", "L2", "F", "Cv5"},
		20: {"M", "St", "N", "Cv9"},
		21: {"M", "St", "F", "Cv7"},
		22: {"M", "R1", "N", "Cv8"},
		23: {"M", "R1", "F", "Cv5"},
		24: {"M", "R2", "N", "Cv4"},
		25: {"M", "R2", "F", "Cv1"},
		26: {"M", "B2", "N", "Cv2"},
		27: {"M", "B2", "F", "Cv1"},
		28: {"Fa", "B1", "N", "Cv1"},
		29: {"Fa", "B1", "F", "Cv1"},
		30: {"Fa", "L1", "N", "Cv1"},
		31: {"Fa", "L1", "F", "Cv2"},
		32: {"Fa", "L2", "N", "Cv6"},
		33: {"Fa", "L2", "F", "Cv8"},
		34: {"Fa", "St", "N", "Cv9"},
		35: {"Fa", "St", "F", "Cv9"},
		36: {"Fa", "R1", "N", "Cv6"},
		37: {"Fa", "R1", "F", "Cv8"},
		38: {"Fa", "R2", "N", "Cv1"},
		39: {"Fa", "R2", "F", "Cv2"},
		40: {"Fa", "B2", "N", "Cv1"},
		41: {"Fa", "B2", "F", "Cv1"},
	}
	rules := FRB1Rules()
	if len(rules) != 42 {
		t.Fatalf("FRB1 has %d rules, want 42", len(rules))
	}
	for i, r := range rules {
		w := want[i]
		if len(r.If) != 3 {
			t.Fatalf("rule %d has %d antecedents, want 3", i, len(r.If))
		}
		got := [4]string{r.If[0].Term, r.If[1].Term, r.If[2].Term, r.Then.Term}
		if got != w {
			t.Errorf("rule %d = %v, want %v", i, got, w)
		}
		if r.If[0].Var != VarSpeed || r.If[1].Var != VarAngle || r.If[2].Var != VarDistance || r.Then.Var != VarCv {
			t.Errorf("rule %d has wrong variable names", i)
		}
	}
}

// TestFRB1CoversFullCross checks that the rule base is exactly the cross
// product |T(S)|x|T(A)|x|T(D)| = 3*7*2 with no duplicates, as the paper
// states ("The FRB forms a fuzzy set of dimensions ...").
func TestFRB1CoversFullCross(t *testing.T) {
	seen := map[[3]string]bool{}
	for _, r := range FRB1Rules() {
		key := [3]string{r.If[0].Term, r.If[1].Term, r.If[2].Term}
		if seen[key] {
			t.Fatalf("duplicate antecedent combination %v", key)
		}
		seen[key] = true
	}
	if len(seen) != 3*7*2 {
		t.Fatalf("FRB1 covers %d combinations, want 42", len(seen))
	}
}

func TestSpeedVariableLayout(t *testing.T) {
	v, err := NewSpeedVariable(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		term string
		want float64
	}{
		{0, TermSlow, 1},
		{15, TermSlow, 1}, // plateau end (Fig. 5a tick)
		{22.5, TermSlow, 0.5},
		{30, TermSlow, 0},
		{30, TermMiddle, 1}, // middle centre (tick at 30)
		{15, TermMiddle, 0},
		{60, TermMiddle, 0},
		{45, TermMiddle, 0.5},
		{60, TermFast, 1}, // fast plateau start (tick at 60)
		{120, TermFast, 1},
		{30, TermFast, 0},
		{45, TermFast, 0.5},
	}
	for _, tc := range tests {
		got, err := v.Membership(tc.term, tc.x)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, tc.want, 1e-12) {
			t.Errorf("mu_%s(%v) = %v, want %v", tc.term, tc.x, got, tc.want)
		}
	}
	if err := v.CheckCoverage(1001); err != nil {
		t.Fatal(err)
	}
}

func TestAngleVariableLayout(t *testing.T) {
	v, err := NewAngleVariable(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x    float64
		term string
		want float64
	}{
		{-180, TermBack1, 1},
		{-135, TermBack1, 1}, // plateau edge (Fig. 5b tick)
		{-90, TermBack1, 0},
		{-90, TermLeft1, 1},
		{-45, TermLeft2, 1},
		{0, TermStraight, 1},
		{-22.5, TermStraight, 0.5},
		{22.5, TermStraight, 0.5},
		{45, TermRight1, 1},
		{90, TermRight2, 1},
		{135, TermBack2, 1},
		{180, TermBack2, 1},
		{90, TermBack2, 0},
		{0, TermLeft2, 0},
		{0, TermRight1, 0},
	}
	for _, tc := range tests {
		got, err := v.Membership(tc.term, tc.x)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(got, tc.want, 1e-12) {
			t.Errorf("mu_%s(%v) = %v, want %v", tc.term, tc.x, got, tc.want)
		}
	}
	if err := v.CheckCoverage(1001); err != nil {
		t.Fatal(err)
	}
	// The layout must be mirror-symmetric. Note the pairing: L1 (-90°)
	// mirrors R2 (+90°) and L2 (-45°) mirrors R1 (+45°), matching FRB1,
	// which maps mirrored antecedents to identical consequents.
	for x := 0.0; x <= 180; x += 1.5 {
		for _, pair := range [][2]string{{TermLeft1, TermRight2}, {TermLeft2, TermRight1}, {TermBack1, TermBack2}} {
			l, _ := v.Membership(pair[0], -x)
			r, _ := v.Membership(pair[1], x)
			if !approx(l, r, 1e-12) {
				t.Fatalf("asymmetry at %v: mu_%s(-x)=%v mu_%s(x)=%v", x, pair[0], l, pair[1], r)
			}
		}
	}
}

func TestDistanceVariableLayout(t *testing.T) {
	v, err := NewDistanceVariable(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	near0, _ := v.Membership(TermNear, 0)
	far10, _ := v.Membership(TermFar, 10)
	near10, _ := v.Membership(TermNear, 10)
	far0, _ := v.Membership(TermFar, 0)
	cross5n, _ := v.Membership(TermNear, 5)
	cross5f, _ := v.Membership(TermFar, 5)
	if near0 != 1 || far10 != 1 || near10 != 0 || far0 != 0 {
		t.Fatalf("distance layout wrong: N(0)=%v F(10)=%v N(10)=%v F(0)=%v", near0, far10, near10, far0)
	}
	if !approx(cross5n, 0.5, 1e-12) || !approx(cross5f, 0.5, 1e-12) {
		t.Fatalf("Near/Far must cross at the universe midpoint: %v/%v", cross5n, cross5f)
	}
}

func TestCvVariableLayout(t *testing.T) {
	v, err := NewCvVariable(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if v.NumTerms() != 9 {
		t.Fatalf("Cv has %d terms, want 9", v.NumTerms())
	}
	// Interior terms peak at k*0.125.
	for k := 2; k <= 8; k++ {
		center := float64(k-1) * 0.125
		got, err := v.Membership(CvTerm(k), center)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Errorf("mu_Cv%d(%v) = %v, want 1", k, center, got)
		}
	}
	// Shoulders plateau at the edges.
	if got, _ := v.Membership(CvTerm(1), 0); got != 1 {
		t.Errorf("Cv1 at 0 = %v, want 1", got)
	}
	if got, _ := v.Membership(CvTerm(9), 1); got != 1 {
		t.Errorf("Cv9 at 1 = %v, want 1", got)
	}
	if err := v.CheckCoverage(1001); err != nil {
		t.Fatal(err)
	}
}

func TestNewFLC1KnownPoints(t *testing.T) {
	eng, err := NewFLC1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumRules() != 42 {
		t.Fatalf("compiled FLC1 has %d rules", eng.NumRules())
	}
	tests := []struct {
		name    string
		s, a, d float64
		lo, hi  float64
	}{
		// Pure rule firings: inputs at term kernels activate one rule.
		{"Sl St N -> Cv9", 4, 0, 0, 0.85, 1},
		{"Fa St F -> Cv9", 100, 0, 10, 0.85, 1},
		{"M St F -> Cv7", 30, 0, 10, 0.70, 0.80},
		{"Sl B1 F -> Cv1", 4, -180, 10, 0, 0.15},
		{"Fa B2 N -> Cv1", 100, 180, 0, 0, 0.15},
		{"M L2 N -> Cv8", 30, -45, 0, 0.82, 0.93},
		{"Fa R1 F -> Cv8", 100, 45, 10, 0.82, 0.93},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cv, err := eng.EvaluateVec(tc.s, tc.a, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			if cv < tc.lo || cv > tc.hi {
				t.Fatalf("Cv(%v,%v,%v) = %v, want in [%v,%v]", tc.s, tc.a, tc.d, cv, tc.lo, tc.hi)
			}
		})
	}
}

// TestFLC1AngleMonotoneTowardsBS: at fixed speed and distance, turning
// away from the base station does not increase the correction value
// beyond a small defuzzification ripple (paper Fig. 8 mechanism), and the
// overall drop from straight-ahead to backwards is substantial. Checked
// for vehicle speeds, where FRB1 is monotone in |angle|.
func TestFLC1AngleMonotoneTowardsBS(t *testing.T) {
	eng, err := NewFLC1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const ripple = 0.04 // centroid defuzzification is only piecewise smooth
	for _, speed := range []float64{30, 60, 100} {
		for _, dist := range []float64{1, 5, 9} {
			prev := math.Inf(1)
			for a := 0.0; a <= 180; a += 2.5 {
				cv, err := eng.EvaluateVec(speed, a, dist)
				if err != nil {
					t.Fatal(err)
				}
				if cv > prev+ripple {
					t.Fatalf("Cv increased when turning away: speed=%v dist=%v angle=%v (%v -> %v)",
						speed, dist, a, prev, cv)
				}
				if cv < prev {
					prev = cv
				}
			}
			straight, err := eng.EvaluateVec(speed, 0, dist)
			if err != nil {
				t.Fatal(err)
			}
			back, err := eng.EvaluateVec(speed, 180, dist)
			if err != nil {
				t.Fatal(err)
			}
			if straight-back < 0.5 {
				t.Fatalf("straight-vs-back gap too small at speed=%v dist=%v: %v - %v", speed, dist, straight, back)
			}
		}
	}
}

// TestFLC1SpeedOrdering: heading straight at the BS, faster users get
// predictions at least as good as walkers (paper Fig. 7 mechanism).
func TestFLC1SpeedOrdering(t *testing.T) {
	eng, err := NewFLC1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []float64{2, 5, 8} {
		cv4, err := eng.EvaluateVec(4, 0, dist)
		if err != nil {
			t.Fatal(err)
		}
		cv30, err := eng.EvaluateVec(30, 0, dist)
		if err != nil {
			t.Fatal(err)
		}
		cv60, err := eng.EvaluateVec(60, 0, dist)
		if err != nil {
			t.Fatal(err)
		}
		if cv30 < cv4-1e-9 || cv60 < cv30-1e-9 {
			t.Fatalf("dist %v: Cv not ordered by speed: 4km/h=%v 30km/h=%v 60km/h=%v", dist, cv4, cv30, cv60)
		}
	}
}

// Property: FLC1 output always stays within [0, 1] and never errors for
// in-universe inputs (full rule coverage).
func TestFLC1TotalityProperty(t *testing.T) {
	eng, err := NewFLC1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(sRaw, aRaw, dRaw float64) bool {
		s := clampFinite(sRaw, 0, 120)
		a := clampFinite(aRaw, -180, 180)
		d := clampFinite(dRaw, 0, 10)
		cv, err := eng.EvaluateVec(s, a, d)
		return err == nil && cv >= 0 && cv <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: FLC1 is symmetric in the sign of the angle (FRB1 maps L and R
// terms to identical consequents everywhere).
func TestFLC1AngleSymmetryProperty(t *testing.T) {
	eng, err := NewFLC1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(sRaw, aRaw, dRaw float64) bool {
		s := clampFinite(sRaw, 0, 120)
		a := clampFinite(aRaw, 0, 180)
		d := clampFinite(dRaw, 0, 10)
		plus, err1 := eng.EvaluateVec(s, a, d)
		minus, err2 := eng.EvaluateVec(s, -a, d)
		return err1 == nil && err2 == nil && math.Abs(plus-minus) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFLC1RejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.SlowPlateauEnd = 50 // > MiddleCenter
	if _, err := NewFLC1(p); err == nil {
		t.Fatal("invalid params should error")
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func clampFinite(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
