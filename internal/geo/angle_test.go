package geo

import (
	"math"
	"math/rand"
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

// normalizeDegMod is NormalizeDeg without its in-range fast path: the
// math.Mod reduction the fast path must reproduce bit for bit.
func normalizeDegMod(a float64) float64 {
	if math.IsNaN(a) || math.IsInf(a, 0) {
		return a
	}
	a = math.Mod(a, 360)
	switch {
	case a > 180:
		return a - 360
	case a <= -180:
		return a + 360
	default:
		return a
	}
}

func TestNormalizeDegMatchesMod(t *testing.T) {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	probes := []float64{
		0, math.Copysign(0, -1), 180, -180, up(180), down(180), up(-180), down(-180),
		359.9, -359.9, 360, -360, down(360), up(-360), 540, -540,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		switch {
		case i%64 == 0: // any bit pattern; huge ones make math.Mod slow
			probes = append(probes, math.Float64frombits(rng.Uint64()))
		case i%2 == 0:
			probes = append(probes, 720*rng.Float64()-360)
		default:
			probes = append(probes, 4000*rng.NormFloat64())
		}
	}
	for _, a := range probes {
		got, want := NormalizeDeg(a), normalizeDegMod(a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeDeg(%v) = %v (%#x), want %v (%#x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestSincosMatchesSinCos guards the one-call bearing draw of the
// metropolis driver: math.Sincos must equal math.Sin and math.Cos bit
// for bit over [0, 2π). Where Sin and Cos have assembly versions and
// Sincos does not (s390x), this is the check that fails.
func TestSincosMatchesSinCos(t *testing.T) {
	thetas := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, math.Nextafter(2*math.Pi, 0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		thetas = append(thetas, 2*math.Pi*rng.Float64())
	}
	for _, th := range thetas {
		sin, cos := math.Sincos(th)
		if math.Float64bits(sin) != math.Float64bits(math.Sin(th)) ||
			math.Float64bits(cos) != math.Float64bits(math.Cos(th)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", th, sin, cos, math.Sin(th), math.Cos(th))
		}
	}
}
