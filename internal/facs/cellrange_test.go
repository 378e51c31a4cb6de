package facs

import (
	"math"
	"math/rand"
	"testing"
)

// TestCellRangesContainCorners checks every cell of the default FLC1
// surface: the range the cell check reads there must hold the cell's 8
// corner values widened by the cell's error bound, and be no wider than
// that plus the documented padding and float32 rounding.
func TestCellRangesContainCorners(t *testing.T) {
	cc := goldenCompiled(t)
	axes := cc.surf1.Axes()
	s, a, d := axes[0].Nodes(), axes[1].Nodes(), axes[2].Nodes()
	value := make([]float64, len(s)*len(a)*len(d))
	at := func(i, j, k int) int { return (i*len(a)+j)*len(d) + k }
	for i := range s {
		for j := range a {
			for k := range d {
				v, err := cc.surf1.EvaluateVec(s[i], a[j], d[k])
				if err != nil {
					t.Fatal(err)
				}
				value[at(i, j, k)] = v
			}
		}
	}
	cells := 0
	for i := 0; i+1 < len(s); i++ {
		for j := 0; j+1 < len(a); j++ {
			for k := 0; k+1 < len(d); k++ {
				mn, mx := math.Inf(1), math.Inf(-1)
				for c := range 8 {
					v := value[at(i+(c&1), j+(c>>1&1), k+(c>>2&1))]
					mn, mx = math.Min(mn, v), math.Max(mx, v)
				}
				cs, ca, cd := (s[i]+s[i+1])/2, (a[j]+a[j+1])/2, (d[k]+d[k+1])/2
				_, b, err := cc.surf1.EvaluateVecWithBound(cs, ca, cd)
				if err != nil {
					t.Fatal(err)
				}
				lo, hi, err := cc.cells.Range(cs, ca, cd)
				if err != nil {
					t.Fatal(err)
				}
				const slack = 1e-6 // float32 rounding of values in [0, 1], plus the padding
				if !(lo <= mn-b && mx+b <= hi) || lo < mn-b-slack || hi > mx+b+slack {
					t.Fatalf("cell (%d, %d, %d): range [%v, %v], corners [%v, %v] ± %v", i, j, k, lo, hi, mn, mx, b)
				}
				cells++
			}
		}
	}
	if want := (len(s) - 1) * (len(a) - 1) * (len(d) - 1); cells != want || cells < 64*64*64 {
		t.Fatalf("checked %d cells, want %d (at least 64³)", cells, want)
	}
}

// TestCellRangesContainPointRanges checks that for 100k random queries,
// inside and outside the FLC1 universes, the point range
// [cv−b1, cv+b1] EvaluateVecWithBound implies lies inside the range the
// cell check reads for the same query: a cell verdict is only ever
// taken where the point verdict would be the same.
func TestCellRangesContainPointRanges(t *testing.T) {
	cc := goldenCompiled(t)
	rng := rand.New(rand.NewSource(26))
	for range 100_000 {
		speed := rng.Float64()*160 - 20
		angle := rng.Float64()*440 - 220
		dist := rng.Float64()*14 - 2
		cv, b1, err := cc.surf1.EvaluateVecWithBound(speed, angle, dist)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := cc.cells.Range(speed, angle, dist)
		if err != nil {
			t.Fatal(err)
		}
		if !(lo <= cv-b1 && cv+b1 <= hi) {
			t.Fatalf("(%v, %v, %v): point range [%v, %v] is not inside cell range [%v, %v]",
				speed, angle, dist, cv-b1, cv+b1, lo, hi)
		}
	}
}
