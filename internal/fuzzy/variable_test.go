package fuzzy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func speedVariable(t *testing.T) *Variable {
	t.Helper()
	v, err := NewVariable("S", 0, 120,
		Term{Name: "Sl", MF: MustTrapezoidal(0, 15, 0, 15)},
		Term{Name: "M", MF: MustTriangular(30, 15, 30)},
		Term{Name: "Fa", MF: MustTrapezoidal(60, 120, 30, 0)},
	)
	if err != nil {
		t.Fatalf("NewVariable: %v", err)
	}
	return v
}

func TestNewVariableValidation(t *testing.T) {
	valid := Term{Name: "A", MF: MustTriangular(0, 1, 1)}
	tests := []struct {
		name    string
		varName string
		min     float64
		max     float64
		terms   []Term
		wantErr string
	}{
		{"ok", "x", 0, 1, []Term{valid}, ""},
		{"empty name", "  ", 0, 1, []Term{valid}, "name must not be empty"},
		{"empty universe", "x", 1, 1, []Term{valid}, "is empty"},
		{"inverted universe", "x", 2, 1, []Term{valid}, "is empty"},
		{"NaN bound", "x", math.NaN(), 1, []Term{valid}, "must be finite"},
		{"infinite bound", "x", 0, math.Inf(1), []Term{valid}, "must be finite"},
		{"no terms", "x", 0, 1, nil, "at least one term"},
		{"empty term name", "x", 0, 1, []Term{{Name: "", MF: valid.MF}}, "empty name"},
		{"nil MF", "x", 0, 1, []Term{{Name: "A"}}, "nil membership function"},
		{"duplicate term", "x", 0, 1, []Term{valid, valid}, "duplicate term"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewVariable(tc.varName, tc.min, tc.max, tc.terms...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestVariableClamp(t *testing.T) {
	v := speedVariable(t)
	tests := []struct {
		in, want float64
	}{
		{-10, 0}, {0, 0}, {60, 60}, {120, 120}, {500, 120}, {math.NaN(), 0},
	}
	for _, tc := range tests {
		if got := v.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVariableFuzzify(t *testing.T) {
	v := speedVariable(t)
	tests := []struct {
		name string
		x    float64
		want []float64
	}{
		{"slow plateau", 4, []float64{1, 0, 0}},
		{"crossover Sl/M", 22.5, []float64{0.5, 0.5, 0}},
		{"pure middle", 30, []float64{0, 1, 0}},
		{"crossover M/Fa", 45, []float64{0, 0.5, 0.5}},
		{"fast plateau", 100, []float64{0, 0, 1}},
		{"clamped above", 500, []float64{0, 0, 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]float64, v.NumTerms())
			v.FuzzifyInto(tc.x, got)
			for i := range got {
				if !almostEqual(got[i], tc.want[i], 1e-12) {
					t.Fatalf("FuzzifyInto(%v)[%d] = %v, want %v", tc.x, i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestVariableLookups(t *testing.T) {
	v := speedVariable(t)
	if v.Name() != "S" {
		t.Fatalf("Name = %q, want S", v.Name())
	}
	if min, max := v.Universe(); min != 0 || max != 120 {
		t.Fatalf("Universe = [%v,%v], want [0,120]", min, max)
	}
	if v.NumTerms() != 3 {
		t.Fatalf("NumTerms = %d, want 3", v.NumTerms())
	}
	if i, ok := v.TermIndex("M"); !ok || i != 1 {
		t.Fatalf("TermIndex(M) = %d,%v, want 1,true", i, ok)
	}
	if _, ok := v.TermIndex("nope"); ok {
		t.Fatal("TermIndex(nope) should be absent")
	}
	if term, ok := v.Term("Fa"); !ok || term.Name != "Fa" {
		t.Fatalf("Term(Fa) = %+v,%v", term, ok)
	}
	if _, err := v.Membership("nope", 0); err == nil {
		t.Fatal("Membership(nope) should error")
	}
	if m, err := v.Membership("M", 30); err != nil || m != 1 {
		t.Fatalf("Membership(M, 30) = %v, %v", m, err)
	}
	// Terms() must return a defensive copy.
	terms := v.Terms()
	terms[0].Name = "mutated"
	if v.TermAt(0).Name != "Sl" {
		t.Fatal("Terms() exposed internal state")
	}
}

func TestCheckCoverage(t *testing.T) {
	v := speedVariable(t)
	if err := v.CheckCoverage(1001); err != nil {
		t.Fatalf("paper speed partition should cover [0,120]: %v", err)
	}
	holey, err := NewVariable("h", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 2)},
		Term{Name: "hi", MF: MustTriangular(10, 2, 0)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := holey.CheckCoverage(101); err == nil {
		t.Fatal("expected coverage hole between 2 and 8")
	}
}

func TestHighestTerm(t *testing.T) {
	v := speedVariable(t)
	tests := []struct {
		x    float64
		want string
	}{
		{0, "Sl"}, {10, "Sl"}, {30, "M"}, {100, "Fa"}, {1000, "Fa"},
		{22.5, "Sl"}, // tie breaks towards earliest declared
	}
	for _, tc := range tests {
		if got := v.HighestTerm(tc.x); got != tc.want {
			t.Errorf("HighestTerm(%v) = %q, want %q", tc.x, got, tc.want)
		}
		if i := v.HighestTermIndex(tc.x); v.TermAt(i).Name != tc.want {
			t.Errorf("HighestTermIndex(%v) = %d (%q), want %q", tc.x, i, v.TermAt(i).Name, tc.want)
		}
	}
	nan := MustVariable("n", 0, 1, Term{Name: "nan", MF: nanMF{}})
	if i, name := nan.HighestTermIndex(0.5), nan.HighestTerm(0.5); i != -1 || name != "" {
		t.Errorf("all-NaN memberships: HighestTermIndex = %d, HighestTerm = %q; want -1, \"\"", i, name)
	}
}

// nanMF is a membership function that is NaN everywhere.
type nanMF struct{}

func (nanMF) Membership(float64) float64 { return math.NaN() }
func (nanMF) Support() (lo, hi float64)  { return 0, 1 }
func (nanMF) Kernel() (lo, hi float64)   { return 0, 1 }

func TestTermCentroid(t *testing.T) {
	v := speedVariable(t)
	// Centroid of triangle with feet 15, 60 and apex 30 is (15+30+60)/3 = 35.
	if c := v.termCentroidAt(1, 100001); !almostEqual(c, 35, 0.05) {
		t.Fatalf("centroid of M = %v, want ~35", c)
	}
	// A zero-width triangle between the samples has no sampled area:
	// its centroid falls back to the kernel midpoint.
	dot := MustVariable("y", 0, 1,
		Term{Name: "all", MF: MustTrapezoidal(0, 1, 0, 0)},
		Term{Name: "dot", MF: MustTriangular(1.0/3, 0, 0)},
	)
	if c := dot.termCentroidAt(1, 11); c != 1.0/3 {
		t.Fatalf("centroid of dot = %v, want 1/3", c)
	}
}

func TestVariableString(t *testing.T) {
	v := speedVariable(t)
	if got, want := v.String(), "S[0,120]{Sl,M,Fa}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Property: fuzzified degrees always lie in [0,1] and at least one term is
// positive everywhere in the universe (the partition covers it).
func TestFuzzifyBoundsProperty(t *testing.T) {
	v := speedVariable(t)
	prop := func(raw float64) bool {
		x := clampFinite(raw, -1e6, 1e6)
		degrees := make([]float64, v.NumTerms())
		v.FuzzifyInto(x, degrees)
		var any bool
		for _, d := range degrees {
			if d < 0 || d > 1 {
				return false
			}
			if d > 0 {
				any = true
			}
		}
		return any
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
