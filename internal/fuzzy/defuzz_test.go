package fuzzy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// symmetricAgg builds an aggregated output over a symmetric three-term
// variable on [0, 1] with the given strengths.
func symmetricAgg(t *testing.T, strengths ...float64) *AggregatedOutput {
	t.Helper()
	out := MustVariable("y", 0, 1,
		Term{Name: "lo", MF: MustTriangular(0, 0, 0.5)},
		Term{Name: "mid", MF: MustTriangular(0.5, 0.5, 0.5)},
		Term{Name: "hi", MF: MustTriangular(1, 0.5, 0)},
	)
	if len(strengths) != out.NumTerms() {
		t.Fatalf("need %d strengths", out.NumTerms())
	}
	return &AggregatedOutput{out: out, strengths: strengths}
}

func TestCentroidSymmetric(t *testing.T) {
	// Only the middle term fired at full strength: the centroid of a
	// symmetric triangle centred at 0.5 is 0.5.
	agg := symmetricAgg(t, 0, 1, 0)
	got, err := Centroid{}.Defuzzify(agg, 2001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 1e-3) {
		t.Fatalf("centroid = %v, want 0.5", got)
	}
}

func TestCentroidPullsTowardsStrongerTerm(t *testing.T) {
	weakHi, err := Centroid{}.Defuzzify(symmetricAgg(t, 1, 0, 0.2), 2001)
	if err != nil {
		t.Fatal(err)
	}
	strongHi, err := Centroid{}.Defuzzify(symmetricAgg(t, 1, 0, 0.9), 2001)
	if err != nil {
		t.Fatal(err)
	}
	if strongHi <= weakHi {
		t.Fatalf("stronger hi should pull centroid right: weak=%v strong=%v", weakHi, strongHi)
	}
}

func TestCentroidEmpty(t *testing.T) {
	_, err := Centroid{}.Defuzzify(symmetricAgg(t, 0, 0, 0), 101)
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("err = %v, want ErrNoRuleFired", err)
	}
}

func TestBisectorSymmetric(t *testing.T) {
	agg := symmetricAgg(t, 0, 1, 0)
	got, err := Bisector{}.Defuzzify(agg, 2001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 5e-3) {
		t.Fatalf("bisector = %v, want ~0.5", got)
	}
}

func TestBisectorEmpty(t *testing.T) {
	_, err := Bisector{}.Defuzzify(symmetricAgg(t, 0, 0, 0), 101)
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("err = %v, want ErrNoRuleFired", err)
	}
}

func TestMeanOfMaxima(t *testing.T) {
	// Clipped middle term at strength 1: maxima form the apex point 0.5.
	got, err := MeanOfMaxima{}.Defuzzify(symmetricAgg(t, 0, 1, 0), 2001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 5e-3) {
		t.Fatalf("MoM = %v, want ~0.5", got)
	}
	// Clipping at 0.5 turns the apex into a plateau [0.25, 0.75]; its mean
	// is still 0.5.
	got, err = MeanOfMaxima{}.Defuzzify(symmetricAgg(t, 0, 0.5, 0), 2001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 5e-3) {
		t.Fatalf("MoM with clipped plateau = %v, want ~0.5", got)
	}
}

func TestMeanOfMaximaEmpty(t *testing.T) {
	_, err := MeanOfMaxima{}.Defuzzify(symmetricAgg(t, 0, 0, 0), 101)
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("err = %v, want ErrNoRuleFired", err)
	}
}

func TestWeightedAverage(t *testing.T) {
	wa := NewWeightedAverage()
	// lo centroid ~1/6, hi centroid ~5/6 over [0,1]; equal strengths give
	// the midpoint 0.5.
	got, err := wa.Defuzzify(symmetricAgg(t, 1, 0, 1), 20001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 1e-3) {
		t.Fatalf("WA = %v, want 0.5", got)
	}
	// Pure mid at any strength is exactly the mid centroid, 0.5.
	got, err = wa.Defuzzify(symmetricAgg(t, 0, 0.3, 0), 20001)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 1e-3) {
		t.Fatalf("WA pure mid = %v, want 0.5", got)
	}
}

func TestWeightedAverageEmpty(t *testing.T) {
	_, err := NewWeightedAverage().Defuzzify(symmetricAgg(t, 0, 0, 0), 101)
	if !errors.Is(err, ErrNoRuleFired) {
		t.Fatalf("err = %v, want ErrNoRuleFired", err)
	}
}

func TestDefuzzifierNames(t *testing.T) {
	tests := []struct {
		d    Defuzzifier
		want string
	}{
		{Centroid{}, "centroid"},
		{Bisector{}, "bisector"},
		{MeanOfMaxima{}, "mean-of-maxima"},
		{NewWeightedAverage(), "weighted-average"},
	}
	for _, tc := range tests {
		if got := tc.d.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// Property: every defuzzifier returns a value within the output universe
// for arbitrary non-empty strength vectors.
func TestDefuzzifiersWithinUniverseProperty(t *testing.T) {
	defuzzers := []Defuzzifier{Centroid{}, Bisector{}, MeanOfMaxima{}, NewWeightedAverage()}
	prop := func(aRaw, bRaw, cRaw float64) bool {
		a := clampFinite(math.Abs(aRaw), 0, 1)
		b := clampFinite(math.Abs(bRaw), 0, 1)
		c := clampFinite(math.Abs(cRaw), 0, 1)
		if a+b+c == 0 {
			return true
		}
		for _, d := range defuzzers {
			agg := &AggregatedOutput{
				out: MustVariable("y", 0, 1,
					Term{Name: "lo", MF: MustTriangular(0, 0, 0.5)},
					Term{Name: "mid", MF: MustTriangular(0.5, 0.5, 0.5)},
					Term{Name: "hi", MF: MustTriangular(1, 0.5, 0)},
				),
				strengths: []float64{a, b, c},
			}
			got, err := d.Defuzzify(agg, 501)
			if err != nil || got < 0 || got > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: centroid and weighted-average agree on which side of the
// midpoint the answer falls when only one outer term dominates.
func TestDefuzzifierSideAgreementProperty(t *testing.T) {
	wa := NewWeightedAverage()
	prop := func(raw float64) bool {
		s := clampFinite(math.Abs(raw), 0.1, 1)
		aggLo := symmetricAggQuick(s, 0, 0)
		aggHi := symmetricAggQuick(0, 0, s)
		cLo, err1 := Centroid{}.Defuzzify(aggLo, 501)
		cHi, err2 := Centroid{}.Defuzzify(aggHi, 501)
		wLo, err3 := wa.Defuzzify(aggLo, 501)
		wHi, err4 := wa.Defuzzify(aggHi, 501)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return cLo < 0.5 && wLo < 0.5 && cHi > 0.5 && wHi > 0.5
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func symmetricAggQuick(a, b, c float64) *AggregatedOutput {
	return &AggregatedOutput{
		out: MustVariable("y", 0, 1,
			Term{Name: "lo", MF: MustTriangular(0, 0, 0.5)},
			Term{Name: "mid", MF: MustTriangular(0.5, 0.5, 0.5)},
			Term{Name: "hi", MF: MustTriangular(1, 0.5, 0)},
		),
		strengths: []float64{a, b, c},
	}
}

func TestImplicationClip(t *testing.T) {
	// Clip implication flattens the consequent at the firing strength:
	// a triangle clipped at 0.5 reads 0.5 at its apex and half-way up
	// its slope (y = 0.375, µ_mid = 0.75, min(0.5, 0.75) = 0.5), and its
	// own membership below the cut (y = 0.125, µ_mid = 0.25).
	agg := symmetricAggQuick(0, 0.5, 0)
	for _, tc := range []struct{ y, want float64 }{{0.5, 0.5}, {0.375, 0.5}, {0.125, 0.25}} {
		if got := agg.At(tc.y); !almostEqual(got, tc.want, 1e-12) {
			t.Fatalf("At(%v) = %v, want %v", tc.y, got, tc.want)
		}
	}
}
