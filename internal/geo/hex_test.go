package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHexBasics(t *testing.T) {
	h := Hex{2, -1}
	if h.S() != -1 {
		t.Fatalf("S = %d, want -1", h.S())
	}
	if got := h.Add(Hex{1, 1}); got != (Hex{3, 0}) {
		t.Fatalf("Add = %v", got)
	}
	if got := h.Sub(Hex{2, -1}); got != (Hex{0, 0}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := h.Scale(3); got != (Hex{6, -3}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := h.String(); got != "hex(2,-1)" {
		t.Fatalf("String = %q", got)
	}
}

func TestHexNeighbors(t *testing.T) {
	origin := Hex{0, 0}
	n := origin.Neighbors()
	if len(n) != 6 {
		t.Fatalf("want 6 neighbours")
	}
	seen := map[Hex]bool{}
	for _, h := range n {
		if origin.DistanceTo(h) != 1 {
			t.Fatalf("neighbour %v at distance %d, want 1", h, origin.DistanceTo(h))
		}
		if seen[h] {
			t.Fatalf("duplicate neighbour %v", h)
		}
		seen[h] = true
	}
}

func TestDirectionWrapsModulo(t *testing.T) {
	if Direction(6) != Direction(0) {
		t.Fatal("Direction(6) should equal Direction(0)")
	}
	if Direction(-1) != Direction(5) {
		t.Fatal("Direction(-1) should equal Direction(5)")
	}
}

func TestHexDistance(t *testing.T) {
	tests := []struct {
		a, b Hex
		want int
	}{
		{Hex{0, 0}, Hex{0, 0}, 0},
		{Hex{0, 0}, Hex{1, 0}, 1},
		{Hex{0, 0}, Hex{2, -1}, 2},
		{Hex{0, 0}, Hex{-3, 3}, 3},
		{Hex{1, 1}, Hex{-1, -1}, 4},
	}
	for _, tc := range tests {
		if got := tc.a.DistanceTo(tc.b); got != tc.want {
			t.Errorf("DistanceTo(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.DistanceTo(tc.a); got != tc.want {
			t.Errorf("distance not symmetric for %v,%v", tc.a, tc.b)
		}
	}
}

func TestRingAndSpiral(t *testing.T) {
	origin := Hex{0, 0}
	if got := origin.Ring(0); len(got) != 1 || got[0] != origin {
		t.Fatalf("Ring(0) = %v", got)
	}
	if got := origin.Ring(-1); got != nil {
		t.Fatalf("Ring(-1) = %v, want nil", got)
	}
	for radius := 1; radius <= 4; radius++ {
		ring := origin.Ring(radius)
		if len(ring) != 6*radius {
			t.Fatalf("Ring(%d) has %d hexes, want %d", radius, len(ring), 6*radius)
		}
		for _, h := range ring {
			if origin.DistanceTo(h) != radius {
				t.Fatalf("Ring(%d) contains %v at distance %d", radius, h, origin.DistanceTo(h))
			}
		}
	}
	for radius := 0; radius <= 4; radius++ {
		spiral := origin.Spiral(radius)
		want := 1 + 3*radius*(radius+1)
		if len(spiral) != want {
			t.Fatalf("Spiral(%d) has %d hexes, want %d", radius, len(spiral), want)
		}
		seen := map[Hex]bool{}
		for _, h := range spiral {
			if seen[h] {
				t.Fatalf("Spiral(%d) duplicates %v", radius, h)
			}
			seen[h] = true
		}
	}
	if got := origin.Spiral(-2); got != nil {
		t.Fatalf("Spiral(-2) = %v, want nil", got)
	}
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, Point{}); err == nil {
		t.Fatal("zero radius should error")
	}
	if _, err := NewLayout(-5, Point{}); err == nil {
		t.Fatal("negative radius should error")
	}
	if _, err := NewLayout(math.NaN(), Point{}); err == nil {
		t.Fatal("NaN radius should error")
	}
	if _, err := NewLayout(1000, Point{}); err != nil {
		t.Fatalf("valid layout: %v", err)
	}
}

func TestLayoutRoundTrip(t *testing.T) {
	layout, err := NewLayout(1000, Point{500, -250})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range (Hex{0, 0}).Spiral(5) {
		if got := layout.HexAt(layout.Center(h)); got != h {
			t.Fatalf("HexAt(Center(%v)) = %v", h, got)
		}
	}
}

func TestLayoutCenterSpacing(t *testing.T) {
	layout, _ := NewLayout(1000, Point{})
	c0 := layout.Center(Hex{0, 0})
	for _, n := range (Hex{0, 0}).Neighbors() {
		d := c0.DistanceTo(layout.Center(n))
		// Adjacent pointy-top hex centres are sqrt(3)*radius apart.
		if !approx(d, math.Sqrt(3)*1000, 1e-6) {
			t.Fatalf("neighbour spacing = %v, want %v", d, math.Sqrt(3)*1000)
		}
	}
}

// Property: every plane point maps to a hex whose centre is within one
// cell radius (pointy-top worst case is the corner distance = radius).
func TestHexAtNearestProperty(t *testing.T) {
	layout, _ := NewLayout(500, Point{})
	prop := func(xRaw, yRaw float64) bool {
		if anyNaNInf(xRaw, yRaw) {
			return true
		}
		p := Point{math.Mod(xRaw, 50000), math.Mod(yRaw, 50000)}
		h := layout.HexAt(p)
		return layout.Center(h).DistanceTo(p) <= 500*1.0000001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hex distance is a metric on the grid.
func TestHexDistanceMetricProperty(t *testing.T) {
	prop := func(aq, ar, bq, br, cq, cr int8) bool {
		a := Hex{int(aq), int(ar)}
		b := Hex{int(bq), int(br)}
		c := Hex{int(cq), int(cr)}
		if a.DistanceTo(b) != b.DistanceTo(a) {
			return false
		}
		if a.DistanceTo(a) != 0 {
			return false
		}
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundMatchesMathRound pins cubeRound's round to math.Round bit for
// bit: on the edge values (halves, the 2^52 boundary where every float is
// an integer, signed zeros, infinities, a quiet NaN), on the floats one
// ulp either side of every half up to 2^53, and on random values.
func TestRoundMatchesMathRound(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := round(x), math.Round(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round(%v) = %v (%#x), math.Round = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
		0.49999999999999994, -0.49999999999999994,
		1 << 52, -(1 << 52), 1<<52 - 0.5, -(1<<52 - 0.5), 1<<51 + 0.5, -(1<<51 + 0.5),
		1 << 53, -(1 << 53), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range edges {
		check(x)
	}
	for e := 0; e <= 53; e++ {
		for _, n := range []float64{0, 1, 2, 3} {
			half := math.Ldexp(1, e) + n + 0.5
			for _, x := range []float64{half, math.Nextafter(half, 0), math.Nextafter(half, math.Inf(1))} {
				check(x)
				check(-x)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check((2*rng.Float64() - 1) * math.Ldexp(1, rng.Intn(60)-4))
	}
}
