package metrics

import (
	"fmt"
	"math"
)

// Summary accumulates streaming moments (Welford's algorithm) plus range
// statistics. The zero value is ready to use.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (0 with fewer than two observations).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Ratio tracks a hit count over a total count, e.g. accepted over
// requested calls. The zero value is ready to use.
type Ratio struct {
	hits  uint64
	total uint64
}

// Observe records one trial with the given outcome.
func (r *Ratio) Observe(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// Hits returns the number of positive outcomes.
func (r *Ratio) Hits() uint64 { return r.hits }

// Total returns the number of trials.
func (r *Ratio) Total() uint64 { return r.total }

// Value returns hits/total (0 if no trials).
func (r *Ratio) Value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Percent returns 100·Value().
func (r *Ratio) Percent() float64 { return 100 * r.Value() }

// String implements fmt.Stringer.
func (r *Ratio) String() string {
	return fmt.Sprintf("%d/%d (%.1f%%)", r.hits, r.total, r.Percent())
}

// Series is a labelled sequence of (x, y) points, the unit of figure
// regeneration: each curve in a paper figure is one Series.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value for the given x, or false if x is absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MeanY returns the mean of the series' y values (0 if empty).
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	var sum float64
	for _, y := range s.Y {
		sum += y
	}
	return sum / float64(len(s.Y))
}

// MinMaxY returns the y range (0, 0 if empty).
func (s *Series) MinMaxY() (min, max float64) {
	if len(s.Y) == 0 {
		return 0, 0
	}
	min, max = s.Y[0], s.Y[0]
	for _, y := range s.Y[1:] {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	return min, max
}
