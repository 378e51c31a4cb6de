package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTriangularMembership(t *testing.T) {
	tri := MustTriangular(30, 15, 30) // paper's M speed term layout
	tests := []struct {
		name string
		x    float64
		want float64
	}{
		{"apex", 30, 1},
		{"left foot", 15, 0},
		{"below left foot", 0, 0},
		{"right foot", 60, 0},
		{"beyond right foot", 120, 0},
		{"mid left slope", 22.5, 0.5},
		{"mid right slope", 45, 0.5},
		{"quarter left slope", 18.75, 0.25},
		{"NaN input", math.NaN(), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tri.Membership(tc.x); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Membership(%v) = %v, want %v", tc.x, got, tc.want)
			}
		})
	}
}

func TestTriangularPaperFormula(t *testing.T) {
	// The implementation must agree with the paper's piecewise definition
	// f(x; x0, a0, a1) on a dense grid.
	tri := MustTriangular(0.5, 0.2, 0.3)
	paper := func(x, x0, a0, a1 float64) float64 {
		switch {
		case x0-a0 < x && x <= x0:
			return (x-x0)/a0 + 1
		case x0 < x && x <= x0+a1:
			return (x0-x)/a1 + 1
		default:
			return 0
		}
	}
	for x := -0.5; x <= 1.5; x += 0.001 {
		want := paper(x, 0.5, 0.2, 0.3)
		if got := tri.Membership(x); !almostEqual(got, want, 1e-9) {
			t.Fatalf("Membership(%v) = %v, want paper formula %v", x, got, want)
		}
	}
}

func TestTriangularZeroWidthEdges(t *testing.T) {
	tri := MustTriangular(10, 0, 5)
	if got := tri.Membership(10); got != 1 {
		t.Fatalf("apex membership = %v, want 1", got)
	}
	if got := tri.Membership(9.999); got != 0 {
		t.Fatalf("left of vertical edge = %v, want 0", got)
	}
	if got := tri.Membership(12.5); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("right slope = %v, want 0.5", got)
	}
}

func TestTriangularValidation(t *testing.T) {
	tests := []struct {
		name             string
		center, lw, rw   float64
		wantErrSubstring bool
	}{
		{"valid", 1, 1, 1, false},
		{"zero widths valid", 1, 0, 0, false},
		{"negative left width", 1, -1, 1, true},
		{"negative right width", 1, 1, -1, true},
		{"NaN center", math.NaN(), 1, 1, true},
		{"infinite center", math.Inf(1), 1, 1, true},
		{"NaN width", 0, math.NaN(), 1, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTriangular(tc.center, tc.lw, tc.rw)
			if gotErr := err != nil; gotErr != tc.wantErrSubstring {
				t.Fatalf("NewTriangular(%v,%v,%v) error = %v, want error %v", tc.center, tc.lw, tc.rw, err, tc.wantErrSubstring)
			}
		})
	}
}

func TestTrapezoidalMembership(t *testing.T) {
	trap := MustTrapezoidal(0, 15, 5, 15) // plateau [0,15], slopes 5 and 15
	tests := []struct {
		name string
		x    float64
		want float64
	}{
		{"plateau left edge", 0, 1},
		{"plateau right edge", 15, 1},
		{"plateau interior", 7.5, 1},
		{"left foot", -5, 0},
		{"right foot", 30, 0},
		{"mid left slope", -2.5, 0.5},
		{"mid right slope", 22.5, 0.5},
		{"far left", -100, 0},
		{"far right", 100, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := trap.Membership(tc.x); !almostEqual(got, tc.want, 1e-12) {
				t.Fatalf("Membership(%v) = %v, want %v", tc.x, got, tc.want)
			}
		})
	}
}

func TestTrapezoidalPaperFormula(t *testing.T) {
	trap := MustTrapezoidal(0.3, 0.6, 0.1, 0.2)
	paper := func(x, x0, x1, a0, a1 float64) float64 {
		switch {
		case x0-a0 < x && x <= x0:
			return (x-x0)/a0 + 1
		case x0 < x && x <= x1:
			return 1
		case x1 < x && x <= x1+a1:
			return (x1-x)/a1 + 1
		default:
			return 0
		}
	}
	for x := -0.5; x <= 1.5; x += 0.001 {
		want := paper(x, 0.3, 0.6, 0.1, 0.2)
		if got := trap.Membership(x); !almostEqual(got, want, 1e-9) {
			t.Fatalf("Membership(%v) = %v, want paper formula %v", x, got, want)
		}
	}
}

func TestShoulders(t *testing.T) {
	left := MustLeftShoulder(15, 15)
	right := MustRightShoulder(60, 30)
	for _, x := range []float64{-1e9, -180, 0, 15} {
		if got := left.Membership(x); got != 1 {
			t.Fatalf("left shoulder Membership(%v) = %v, want 1", x, got)
		}
	}
	if got := left.Membership(22.5); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("left shoulder slope = %v, want 0.5", got)
	}
	if got := left.Membership(30); got != 0 {
		t.Fatalf("left shoulder foot = %v, want 0", got)
	}
	for _, x := range []float64{60, 120, 1e9} {
		if got := right.Membership(x); got != 1 {
			t.Fatalf("right shoulder Membership(%v) = %v, want 1", x, got)
		}
	}
	if got := right.Membership(45); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("right shoulder slope = %v, want 0.5", got)
	}
	if got := right.Membership(30); got != 0 {
		t.Fatalf("right shoulder foot = %v, want 0", got)
	}
}

func TestTrapezoidalValidation(t *testing.T) {
	tests := []struct {
		name           string
		le, re, lw, rw float64
		wantErr        bool
	}{
		{"valid", 0, 1, 1, 1, false},
		{"point plateau", 1, 1, 1, 1, false},
		{"inverted plateau", 2, 1, 1, 1, true},
		{"negative width", 0, 1, -1, 1, true},
		{"NaN edge", math.NaN(), 1, 1, 1, true},
		{"+Inf left edge", math.Inf(1), math.Inf(1), 0, 0, true},
		{"left shoulder ok", math.Inf(-1), 1, 0, 1, false},
		{"right shoulder ok", 1, math.Inf(1), 1, 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTrapezoidal(tc.le, tc.re, tc.lw, tc.rw)
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("NewTrapezoidal(%v,%v,%v,%v) error = %v, want error %v", tc.le, tc.re, tc.lw, tc.rw, err, tc.wantErr)
			}
		})
	}
}

// TestSingleton checks that a zero-width triangle is a singleton: one
// at its centre, zero everywhere else.
func TestSingleton(t *testing.T) {
	s := MustTriangular(0.5, 0, 0)
	if got := s.Membership(0.5); got != 1 {
		t.Fatalf("Membership at point = %v, want 1", got)
	}
	for _, x := range []float64{0.4999999, 0.5000001, math.NaN()} {
		if got := s.Membership(x); got != 0 {
			t.Fatalf("Membership(%v) = %v, want 0", x, got)
		}
	}
	if lo, hi := s.Support(); lo != 0.5 || hi != 0.5 {
		t.Fatalf("Support = [%v,%v], want [0.5,0.5]", lo, hi)
	}
}

// Property: all membership functions stay within [0, 1] for arbitrary
// finite inputs and arbitrary valid shapes.
func TestMembershipBoundsProperty(t *testing.T) {
	prop := func(center, lwRaw, rwRaw, x float64) bool {
		if math.IsNaN(center) || math.IsInf(center, 0) {
			return true // constructor rejects; nothing to check
		}
		lw, rw := math.Abs(lwRaw), math.Abs(rwRaw)
		if math.IsNaN(lw) || math.IsInf(lw, 0) || math.IsNaN(rw) || math.IsInf(rw, 0) {
			return true
		}
		tri, err := NewTriangular(center, lw, rw)
		if err != nil {
			return true
		}
		m := tri.Membership(x)
		return m >= 0 && m <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangular membership is non-decreasing left of the apex and
// non-increasing right of it.
func TestTriangularMonotoneProperty(t *testing.T) {
	prop := func(centerRaw, widthRaw, aRaw, bRaw float64) bool {
		center := clampFinite(centerRaw, -1e6, 1e6)
		width := clampFinite(math.Abs(widthRaw), 0.001, 1e6)
		tri, err := NewTriangular(center, width, width)
		if err != nil {
			return true
		}
		a := clampFinite(aRaw, center-2*width, center)
		b := clampFinite(bRaw, center-2*width, center)
		if a > b {
			a, b = b, a
		}
		// a <= b <= center: membership must be non-decreasing.
		return tri.Membership(a) <= tri.Membership(b)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: support and kernel are consistent — membership is 0 strictly
// outside the support and 1 on the kernel.
func TestSupportKernelConsistencyProperty(t *testing.T) {
	prop := func(le, plateau, lw, rw float64) bool {
		le = clampFinite(le, -1e6, 1e6)
		re := le + clampFinite(math.Abs(plateau), 0, 1e6)
		lwc := clampFinite(math.Abs(lw), 0, 1e6)
		rwc := clampFinite(math.Abs(rw), 0, 1e6)
		trap, err := NewTrapezoidal(le, re, lwc, rwc)
		if err != nil {
			return true
		}
		sLo, sHi := trap.Support()
		kLo, kHi := trap.Kernel()
		if trap.Membership(sLo-1) != 0 || trap.Membership(sHi+1) != 0 {
			return false
		}
		return trap.Membership(kLo) == 1 && trap.Membership(kHi) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipStringers(t *testing.T) {
	tests := []struct {
		name string
		got  string
		want string
	}{
		{"triangular", MustTriangular(30, 15, 30).String(), "tri(30; 15, 30)"},
		{"trapezoidal", MustTrapezoidal(0, 15, 0, 15).String(), "trap(0, 15; 0, 15)"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Fatalf("String() = %q, want %q", tc.got, tc.want)
			}
		})
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

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
