package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalizeDeg(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{180, 180},
		{-180, 180},
		{181, -179},
		{-181, 179},
		{360, 0},
		{540, 180},
		{-540, 180},
		{720, 0},
		{45, 45},
		{-45, -45},
		{1e6, NormalizeDeg(math.Mod(1e6, 360))},
	}
	for _, tc := range tests {
		if got := NormalizeDeg(tc.in); !approx(got, tc.want, 1e-9) {
			t.Errorf("NormalizeDeg(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := NormalizeDeg(math.NaN()); !math.IsNaN(got) {
		t.Errorf("NormalizeDeg(NaN) = %v, want NaN", got)
	}
}

func TestAngleDiffDeg(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{10, 350, 20},
		{350, 10, -20},
		{90, -90, 180},
		{0, 0, 0},
		{-170, 170, 20},
	}
	for _, tc := range tests {
		if got := AngleDiffDeg(tc.a, tc.b); !approx(got, tc.want, 1e-9) {
			t.Errorf("AngleDiffDeg(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	tests := []struct {
		name      string
		got, want float64
	}{
		{"KmhToMps(36)", KmhToMps(36), 10},
		{"MpsToKmh(10)", MpsToKmh(10), 36},
		{"KmToM(1.5)", KmToM(1.5), 1500},
		{"MToKm(250)", MToKm(250), 0.25},
	}
	for _, tc := range tests {
		if !approx(tc.got, tc.want, 1e-12) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// Property: NormalizeDeg output is always in (-180, 180] and is idempotent.
func TestNormalizeDegProperty(t *testing.T) {
	prop := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		n := NormalizeDeg(a)
		if n <= -180 || n > 180 {
			return false
		}
		return NormalizeDeg(n) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: speed conversions invert each other.
func TestSpeedConversionRoundTripProperty(t *testing.T) {
	prop := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 1e9)
		return approx(MpsToKmh(KmhToMps(v)), v, math.Abs(v)*1e-12+1e-12)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
