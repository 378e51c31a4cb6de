package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance of this classic set is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatalf("CI95 = %v, want > 0", s.CI95())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.Variance() != 0 || s.CI95() != 0 {
		t.Fatal("single-observation summary: mean 3, variance 0")
	}
	s.Add(math.NaN()) // ignored
	if s.Count() != 1 {
		t.Fatalf("NaN should be ignored, count = %d", s.Count())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	if got := s.String(); got == "" {
		t.Fatal("String should not be empty")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 || r.Percent() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	for i := 0; i < 10; i++ {
		r.Observe(i < 7)
	}
	if r.Hits() != 7 || r.Total() != 10 {
		t.Fatalf("Hits/Total = %d/%d, want 7/10", r.Hits(), r.Total())
	}
	if r.Value() != 0.7 || r.Percent() != 70 {
		t.Fatalf("Value = %v, Percent = %v", r.Value(), r.Percent())
	}
	if got := r.String(); got != "7/10 (70.0%)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSeries(t *testing.T) {
	s := Series{Label: "test"}
	s.Append(10, 95)
	s.Append(20, 90)
	s.Append(30, 85)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if y, ok := s.YAt(20); !ok || y != 90 {
		t.Fatalf("YAt(20) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(25); ok {
		t.Fatal("YAt(25) should be absent")
	}
	if got := s.MeanY(); got != 90 {
		t.Fatalf("MeanY = %v, want 90", got)
	}
	if min, max := s.MinMaxY(); min != 85 || max != 95 {
		t.Fatalf("MinMaxY = %v,%v", min, max)
	}
	empty := Series{}
	if empty.MeanY() != 0 {
		t.Fatal("empty MeanY should be 0")
	}
	if min, max := empty.MinMaxY(); min != 0 || max != 0 {
		t.Fatal("empty MinMaxY should be 0,0")
	}
}

// Property: summary mean always lies within [min, max].
func TestSummaryMeanBoundsProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		var s Summary
		any := false
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(math.Mod(x, 1e9))
			any = true
		}
		if !any {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
