package fuzzy

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// testController builds a simple two-input controller used across the
// engine tests: service quality and food quality drive a tip percentage.
func testController(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	service := MustVariable("service", 0, 10,
		Term{Name: "poor", MF: MustTriangular(0, 0, 5)},
		Term{Name: "good", MF: MustTriangular(5, 5, 5)},
		Term{Name: "excellent", MF: MustTriangular(10, 5, 0)},
	)
	food := MustVariable("food", 0, 10,
		Term{Name: "rancid", MF: MustTrapezoidal(0, 2, 0, 4)},
		Term{Name: "delicious", MF: MustTrapezoidal(8, 10, 4, 0)},
	)
	tip := MustVariable("tip", 0, 30,
		Term{Name: "cheap", MF: MustTrapezoidal(0, 5, 0, 10)},
		Term{Name: "average", MF: MustTriangular(15, 10, 10)},
		Term{Name: "generous", MF: MustTrapezoidal(25, 30, 10, 0)},
	)
	rules := []Rule{
		{If: []Clause{{"service", "poor"}, {"food", "rancid"}}, Then: Clause{"tip", "cheap"}},
		{If: []Clause{{"service", "good"}}, Then: Clause{"tip", "average"}},
		{If: []Clause{{"service", "excellent"}, {"food", "delicious"}}, Then: Clause{"tip", "generous"}},
		{If: []Clause{{"service", "poor"}}, Then: Clause{"tip", "cheap"}},
		{If: []Clause{{"service", "excellent"}}, Then: Clause{"tip", "generous"}},
	}
	e, err := NewEngine([]*Variable{service, food}, tip, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineEvaluateKnownPoints(t *testing.T) {
	e := testController(t)
	tests := []struct {
		name          string
		service, food float64
		wantLo        float64
		wantHi        float64
	}{
		{"worst case", 0, 0, 0, 8},
		{"mid case", 5, 5, 13, 17},
		{"best case", 10, 10, 22, 30},
		{"good service bad food", 5, 0, 13, 17},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := e.EvaluateVec(tc.service, tc.food)
			if err != nil {
				t.Fatal(err)
			}
			if got < tc.wantLo || got > tc.wantHi {
				t.Fatalf("EvaluateVec(%v, %v) = %v, want in [%v, %v]", tc.service, tc.food, got, tc.wantLo, tc.wantHi)
			}
		})
	}
}

func TestEngineEvaluateMonotoneInService(t *testing.T) {
	e := testController(t)
	prev := math.Inf(-1)
	for s := 0.0; s <= 10; s += 0.25 {
		got, err := e.EvaluateVec(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev-1e-9 {
			t.Fatalf("tip decreased from %v to %v at service=%v", prev, got, s)
		}
		prev = got
	}
}

func TestEngineEvaluateErrors(t *testing.T) {
	e := testController(t)
	if _, err := e.EvaluateVec(1); err == nil {
		t.Fatal("short input vector should error")
	}
	if _, err := e.Infer([]float64{1, 2, 3}); err == nil {
		t.Fatal("long input vector should error")
	}
}

func TestNewEngineValidation(t *testing.T) {
	in := MustVariable("x", 0, 1, Term{Name: "a", MF: MustTrapezoidal(0, 1, 0, 0)})
	out := MustVariable("y", 0, 1, Term{Name: "b", MF: MustTrapezoidal(0, 1, 0, 0)})
	rule := func(then Clause, clauses ...Clause) []Rule { return []Rule{{If: clauses, Then: then}} }
	okRule := rule(Clause{"y", "b"}, Clause{"x", "a"})

	tests := []struct {
		name    string
		inputs  []*Variable
		output  *Variable
		rules   []Rule
		wantErr string
	}{
		{"ok", []*Variable{in}, out, okRule, ""},
		{"no inputs", nil, out, okRule, "at least one input"},
		{"nil output", []*Variable{in}, nil, okRule, "needs an output"},
		{"no rules", []*Variable{in}, out, nil, "at least one rule"},
		{"nil input", []*Variable{nil}, out, okRule, "is nil"},
		{"duplicate input", []*Variable{in, in}, out, okRule, "duplicate input"},
		{"output as input", []*Variable{in, out}, out, okRule, "also appears as an input"},
		{"unknown rule variable", []*Variable{in}, out, rule(Clause{"y", "b"}, Clause{"z", "a"}), `unknown input variable "z"`},
		{"unknown rule term", []*Variable{in}, out, rule(Clause{"y", "b"}, Clause{"x", "zz"}), `no term "zz"`},
		{"wrong consequent var", []*Variable{in}, out, rule(Clause{"z", "b"}, Clause{"x", "a"}), "consequent references"},
		{"unknown output term", []*Variable{in}, out, rule(Clause{"y", "zz"}, Clause{"x", "a"}), `no term "zz"`},
		{"duplicate clause variable", []*Variable{in}, out, rule(Clause{"y", "b"}, Clause{"x", "a"}, Clause{"x", "a"}), "referenced twice"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(tc.inputs, tc.output, tc.rules)
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

func TestNewEngineRejectsCoverageHole(t *testing.T) {
	in := MustVariable("x", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 2)},
		Term{Name: "hi", MF: MustTriangular(10, 2, 0)},
	)
	out := MustVariable("y", 0, 1, Term{Name: "b", MF: MustTrapezoidal(0, 1, 0, 0)})
	_, err := NewEngine([]*Variable{in}, out, []Rule{{If: []Clause{{"x", "lo"}}, Then: Clause{"y", "b"}}})
	if err == nil || !strings.Contains(err.Error(), "coverage hole") {
		t.Fatalf("error = %v, want coverage hole", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := testController(t)
	if got := e.NumRules(); got != 5 {
		t.Fatalf("NumRules = %d, want 5", got)
	}
	if got := len(e.Inputs()); got != 2 {
		t.Fatalf("len(Inputs) = %d, want 2", got)
	}
	if e.Output().Name() != "tip" {
		t.Fatalf("Output().Name() = %q, want tip", e.Output().Name())
	}
	rules := e.Rules()
	rules[0].Then.Term = "mutated"
	if e.Rules()[0].Then.Term == "mutated" {
		t.Fatal("Rules() exposed internal state")
	}
}

func TestEngineZeroWeightRuleDefaultsToOne(t *testing.T) {
	in := MustVariable("x", 0, 1, Term{Name: "a", MF: MustTrapezoidal(0, 1, 0, 0)})
	out := MustVariable("y", 0, 1,
		Term{Name: "lo", MF: MustTriangular(0, 0, 1)},
		Term{Name: "hi", MF: MustTriangular(1, 1, 0)},
	)
	e, err := NewEngine([]*Variable{in}, out, []Rule{{If: []Clause{{"x", "a"}}, Then: Clause{"y", "hi"}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvaluateVec(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.5 {
		t.Fatalf("EvaluateVec = %v, want strong pull towards hi (>= 0.5)", got)
	}
}

func TestEngineRuleWeightScalesStrength(t *testing.T) {
	in := MustVariable("x", 0, 1, Term{Name: "a", MF: MustTrapezoidal(0, 1, 0, 0)})
	out := MustVariable("y", 0, 1,
		Term{Name: "lo", MF: MustTriangular(0, 0, 1)},
		Term{Name: "hi", MF: MustTriangular(1, 1, 0)},
	)
	full, err := NewEngine([]*Variable{in}, out, []Rule{
		{If: []Clause{{"x", "a"}}, Then: Clause{"y", "hi"}, Weight: 1},
		{If: []Clause{{"x", "a"}}, Then: Clause{"y", "lo"}, Weight: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := full.Infer([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Strength(1); got != 1 {
		t.Fatalf("hi strength = %v, want 1", got)
	}
	if got := agg.Strength(0); !almostEqual(got, 0.2, 1e-12) {
		t.Fatalf("lo strength = %v, want 0.2", got)
	}
}

func TestEngineExplain(t *testing.T) {
	e := testController(t)
	ex, err := e.Explain([]float64{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Fired) == 0 {
		t.Fatal("no rules fired for a well-covered point")
	}
	for i := 1; i < len(ex.Fired); i++ {
		if ex.Fired[i].Strength > ex.Fired[i-1].Strength {
			t.Fatal("Fired not sorted by descending strength")
		}
	}
	if ex.OutputTerm != "generous" {
		t.Fatalf("OutputTerm = %q, want generous", ex.OutputTerm)
	}
	if ex.Output < 15 {
		t.Fatalf("Output = %v, want generous tip > 15", ex.Output)
	}
	if _, err := e.Explain([]float64{1}); err == nil {
		t.Fatal("short vector should error")
	}
}

func TestEngineConcurrentEvaluate(t *testing.T) {
	for _, d := range []Defuzzifier{NewWeightedAverage(), Centroid{}} {
		e := testController(t, WithDefuzzifier(d))
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(seed float64) {
				for i := 0; i < 200; i++ {
					x := math.Mod(seed+float64(i)*0.37, 10)
					if _, err := e.EvaluateVec(x, 10-x); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(float64(g))
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", d.Name(), err)
			}
		}
	}
}

// Property: for arbitrary in-universe inputs the defuzzified output always
// lies within the output universe.
func TestEngineOutputWithinUniverseProperty(t *testing.T) {
	e := testController(t)
	prop := func(sRaw, fRaw float64) bool {
		s := clampFinite(sRaw, 0, 10)
		f := clampFinite(fRaw, 0, 10)
		got, err := e.EvaluateVec(s, f)
		if err != nil {
			return false
		}
		return got >= 0 && got <= 30
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: inference is deterministic — the same inputs always produce the
// same output.
func TestEngineDeterministicProperty(t *testing.T) {
	e := testController(t)
	prop := func(sRaw, fRaw float64) bool {
		s := clampFinite(sRaw, 0, 10)
		f := clampFinite(fRaw, 0, 10)
		a, err1 := e.EvaluateVec(s, f)
		b, err2 := e.EvaluateVec(s, f)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestErrNoRuleFiredSurfacing(t *testing.T) {
	// A rule base that only covers part of the input space can leave the
	// aggregated output empty; the engine must surface ErrNoRuleFired.
	in := MustVariable("x", 0, 10,
		Term{Name: "lo", MF: MustTriangular(0, 0, 6)},
		Term{Name: "hi", MF: MustTriangular(10, 6, 0)},
	)
	out := MustVariable("y", 0, 1,
		Term{Name: "a", MF: MustTriangular(0, 0, 1)},
		Term{Name: "b", MF: MustTriangular(1, 1, 0)},
	)
	e := MustEngine([]*Variable{in}, out, []Rule{{If: []Clause{{"x", "lo"}}, Then: Clause{"y", "a"}}})
	_, err := e.EvaluateVec(10) // only "hi" is active; no rule covers it
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("err = %v, want ErrNoRuleFired", err)
	}
}
