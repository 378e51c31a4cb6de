package facs

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFRB2MatchesPaperTable2 pins all 27 rules against an independently
// transcribed copy of the paper's Table 2.
func TestFRB2MatchesPaperTable2(t *testing.T) {
	want := map[int][4]string{
		0:  {"B", "T", "S", "A"},
		1:  {"B", "T", "M", "NRNA"},
		2:  {"B", "T", "F", "NRNA"},
		3:  {"B", "Vo", "S", "A"},
		4:  {"B", "Vo", "M", "NRNA"},
		5:  {"B", "Vo", "F", "WR"},
		6:  {"B", "Vi", "S", "WA"},
		7:  {"B", "Vi", "M", "NRNA"},
		8:  {"B", "Vi", "F", "WR"},
		9:  {"N", "T", "S", "A"},
		10: {"N", "T", "M", "NRNA"},
		11: {"N", "T", "F", "NRNA"},
		12: {"N", "Vo", "S", "A"},
		13: {"N", "Vo", "M", "NRNA"},
		14: {"N", "Vo", "F", "NRNA"},
		15: {"N", "Vi", "S", "WA"},
		16: {"N", "Vi", "M", "NRNA"},
		17: {"N", "Vi", "F", "NRNA"},
		18: {"G", "T", "S", "A"},
		19: {"G", "T", "M", "A"},
		20: {"G", "T", "F", "NRNA"},
		21: {"G", "Vo", "S", "A"},
		22: {"G", "Vo", "M", "A"},
		23: {"G", "Vo", "F", "WR"},
		24: {"G", "Vi", "S", "A"},
		25: {"G", "Vi", "M", "A"},
		26: {"G", "Vi", "F", "R"},
	}
	rules := FRB2Rules()
	if len(rules) != 27 {
		t.Fatalf("FRB2 has %d rules, want 27", len(rules))
	}
	for i, r := range rules {
		w := want[i]
		got := [4]string{r.If[0].Term, r.If[1].Term, r.If[2].Term, r.Then.Term}
		if got != w {
			t.Errorf("rule %d = %v, want %v", i, got, w)
		}
		if r.If[0].Var != VarCvIn || r.If[1].Var != VarRequest || r.If[2].Var != VarCounter || r.Then.Var != VarAR {
			t.Errorf("rule %d has wrong variable names", i)
		}
	}
}

func TestFRB2CoversFullCross(t *testing.T) {
	seen := map[[3]string]bool{}
	for _, r := range FRB2Rules() {
		key := [3]string{r.If[0].Term, r.If[1].Term, r.If[2].Term}
		if seen[key] {
			t.Fatalf("duplicate antecedent combination %v", key)
		}
		seen[key] = true
	}
	if len(seen) != 3*3*3 {
		t.Fatalf("FRB2 covers %d combinations, want 27", len(seen))
	}
}

func TestFLC2VariableLayouts(t *testing.T) {
	p := DefaultParams()
	cv, err := NewCvInputVariable(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRequestVariable(p)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCounterVariable(p)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewARVariable(p)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  float64
		err  error
		want float64
	}{
		// Fig. 6(a): B/N/G at ticks 0, 0.5, 1.
		{"B(0)", mustMu(t, cv, TermBad, 0), nil, 1},
		{"N(0.5)", mustMu(t, cv, TermNormal, 0.5), nil, 1},
		{"G(1)", mustMu(t, cv, TermGood, 1), nil, 1},
		{"B(0.25)", mustMu(t, cv, TermBad, 0.25), nil, 0.5},
		{"G(0.5)", mustMu(t, cv, TermGood, 0.5), nil, 0},
		// Fig. 6(b): T/Vo/Vi at ticks 0, 5, 10.
		{"T(0)", mustMu(t, r, TermText, 0), nil, 1},
		{"Vo(5)", mustMu(t, r, TermVoice, 5), nil, 1},
		{"Vi(10)", mustMu(t, r, TermVideo, 10), nil, 1},
		{"T(1)", mustMu(t, r, TermText, 1), nil, 0.8}, // the paper's 1 BU text request
		{"Vo(1)", mustMu(t, r, TermVoice, 1), nil, 0.2},
		// Fig. 6(c): S/M/F at ticks 0, 20, 40.
		{"S(0)", mustMu(t, cs, TermSmall, 0), nil, 1},
		{"M(20)", mustMu(t, cs, TermMid, 20), nil, 1},
		{"F(40)", mustMu(t, cs, TermFull, 40), nil, 1},
		{"S(10)", mustMu(t, cs, TermSmall, 10), nil, 0.5},
		// Fig. 6(d): R/WR/NRNA/WA/A over [-1, 1].
		{"R(-1)", mustMu(t, ar, TermReject, -1), nil, 1},
		{"WR(-0.5)", mustMu(t, ar, TermWeakReject, -0.5), nil, 1},
		{"NRNA(0)", mustMu(t, ar, TermNRNA, 0), nil, 1},
		{"WA(0.5)", mustMu(t, ar, TermWeakAccept, 0.5), nil, 1},
		{"A(1)", mustMu(t, ar, TermAccept, 1), nil, 1},
	}
	for _, tc := range checks {
		if !approx(tc.got, tc.want, 1e-12) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	for _, v := range []interface{ CheckCoverage(int) error }{cv, r, cs, ar} {
		if err := v.CheckCoverage(1001); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewFLC2KnownDecisions(t *testing.T) {
	eng, err := NewFLC2(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumRules() != 27 {
		t.Fatalf("compiled FLC2 has %d rules", eng.NumRules())
	}
	tests := []struct {
		name      string
		cv, r, cs float64
		lo, hi    float64
	}{
		// Pure rule activations at term kernels.
		{"G T S -> Accept", 1, 0, 0, 0.6, 1},
		{"G Vi F -> Reject", 1, 10, 40, -1, -0.6},
		{"B Vi S -> WeakAccept", 0, 10, 0, 0.35, 0.65},
		{"N Vo M -> NRNA", 0.5, 5, 20, -0.15, 0.15},
		{"B Vo F -> WeakReject", 0, 5, 40, -0.65, -0.35},
		// Blends reported in the probe calibration.
		{"good user, empty cell", 0.9, 1, 0, 0.5, 1},
		{"good user, full cell", 0.9, 1, 40, -0.4, 0.1},
		{"bad user, empty cell still accepts", 0.1, 1, 0, 0.5, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.EvaluateVec(tc.cv, tc.r, tc.cs)
			if err != nil {
				t.Fatal(err)
			}
			if got < tc.lo || got > tc.hi {
				t.Fatalf("AR(%v,%v,%v) = %v, want in [%v,%v]", tc.cv, tc.r, tc.cs, got, tc.lo, tc.hi)
			}
		})
	}
}

// TestFLC2OccupancyMonotone: at fixed Cv and request, the three occupancy
// regimes (empty, mid, full — the kernels of Small/Middle/Full) are never
// ordered in favour of a fuller station. A strict point-wise scan is
// deliberately not asserted: for Good predictions the rule base maps both
// the Small and Middle rows to Accept, so the accept strength legitimately
// rises towards the Middle kernel.
func TestFLC2OccupancyMonotone(t *testing.T) {
	eng, err := NewFLC2(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, cv := range []float64{0.1, 0.5, 0.9} {
		for _, r := range []float64{1, 5, 10} {
			empty, err := eng.EvaluateVec(cv, r, 0)
			if err != nil {
				t.Fatal(err)
			}
			mid, err := eng.EvaluateVec(cv, r, 20)
			if err != nil {
				t.Fatal(err)
			}
			full, err := eng.EvaluateVec(cv, r, 40)
			if err != nil {
				t.Fatal(err)
			}
			if mid > empty+eps || full > mid+eps {
				t.Fatalf("occupancy regimes out of order at cv=%v r=%v: empty=%v mid=%v full=%v",
					cv, r, empty, mid, full)
			}
		}
	}
}

// TestFLC2CvImprovesAdmission: with the station half full, improving the
// prediction (Cv) never hurts admission.
func TestFLC2CvImprovesAdmission(t *testing.T) {
	eng, err := NewFLC2(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const ripple = 0.04
	for _, r := range []float64{1, 5, 10} {
		prev := math.Inf(-1)
		for cv := 0.0; cv <= 1; cv += 0.02 {
			ar, err := eng.EvaluateVec(cv, r, 20)
			if err != nil {
				t.Fatal(err)
			}
			if ar < prev-ripple {
				t.Fatalf("AR decreased with better Cv: r=%v cv=%v (%v -> %v)", r, cv, prev, ar)
			}
			if ar > prev {
				prev = ar
			}
		}
	}
}

// Property: FLC2 output always stays within [-1, 1] and never errors.
func TestFLC2TotalityProperty(t *testing.T) {
	eng, err := NewFLC2(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(cvRaw, rRaw, csRaw float64) bool {
		cv := clampFinite(cvRaw, 0, 1)
		r := clampFinite(rRaw, 0, 10)
		cs := clampFinite(csRaw, 0, 40)
		ar, err := eng.EvaluateVec(cv, r, cs)
		return err == nil && ar >= -1 && ar <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewFLC2RejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.CapacityBU = -40
	if _, err := NewFLC2(p); err == nil {
		t.Fatal("invalid params should error")
	}
}

func mustMu(t *testing.T, v interface {
	Membership(string, float64) (float64, error)
}, term string, x float64) float64 {
	t.Helper()
	m, err := v.Membership(term, x)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
