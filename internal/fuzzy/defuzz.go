package fuzzy

import (
	"errors"
	"fmt"
)

// ErrNoRuleFired is returned when an evaluation activates no rule at all,
// leaving the aggregated output fuzzy set empty. Controllers built on a
// complete rule base over covering partitions never see this error.
var ErrNoRuleFired = errors.New("fuzzy: no rule fired")

// Defuzzifier converts the aggregated output fuzzy set of one evaluation
// into a crisp value.
type Defuzzifier interface {
	// Defuzzify reduces agg to a crisp value within the output universe.
	// resolution is the sample count used by integral methods (>= 2).
	Defuzzify(agg *AggregatedOutput, resolution int) (float64, error)
	// Name identifies the method, e.g. "centroid".
	Name() string
}

// Centroid is the centre-of-area defuzzifier: the integral-weighted mean of
// the aggregated output set, computed by sampling the universe. It is the
// most common Mamdani defuzzifier and the package default.
type Centroid struct{}

var _ Defuzzifier = Centroid{}

// Name implements Defuzzifier.
func (Centroid) Name() string { return "centroid" }

// Defuzzify implements Defuzzifier.
func (Centroid) Defuzzify(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	var buf [engineResolution]float64
	s := agg.sampling(resolution, &buf)
	var num, den float64
	for i, m := range s.ms[s.lo : s.hi+1] {
		num += s.y(s.lo+i) * m
		den += m
	}
	if den == 0 {
		return 0, fmt.Errorf("fuzzy: centroid is undefined: aggregated area is zero at resolution %d", len(s.ms)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	return num / den, nil
}

// Bisector is the bisector-of-area defuzzifier: the point that splits the
// aggregated output area into two halves.
type Bisector struct{}

var _ Defuzzifier = Bisector{}

// Name implements Defuzzifier.
func (Bisector) Name() string { return "bisector" }

// Defuzzify implements Defuzzifier.
func (Bisector) Defuzzify(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	var buf [engineResolution]float64
	s := agg.sampling(resolution, &buf)
	var total float64
	for _, m := range s.ms[s.lo : s.hi+1] {
		total += m
	}
	if total == 0 {
		return 0, fmt.Errorf("fuzzy: bisector is undefined: aggregated area is zero at resolution %d", len(s.ms)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	// The walk starts at sample 0, not lo: total/2 may round to zero.
	var acc float64
	for i, m := range s.ms {
		acc += m
		if acc >= total/2 {
			return s.y(i), nil
		}
	}
	_, max := agg.out.Universe()
	return max, nil
}

// MeanOfMaxima defuzzifies to the mean of the sample points at which the
// aggregated output attains its maximum membership.
type MeanOfMaxima struct{}

var _ Defuzzifier = MeanOfMaxima{}

// Name implements Defuzzifier.
func (MeanOfMaxima) Name() string { return "mean-of-maxima" }

// Defuzzify implements Defuzzifier.
func (MeanOfMaxima) Defuzzify(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	var buf [engineResolution]float64
	s := agg.sampling(resolution, &buf)
	const eps = 1e-12
	var best, sum float64
	var count int
	for i, m := range s.ms[s.lo : s.hi+1] {
		switch {
		case m > best+eps:
			best, sum, count = m, s.y(s.lo+i), 1
		case m >= best-eps && m > 0:
			sum += s.y(s.lo + i)
			count++
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("fuzzy: mean-of-maxima is undefined: aggregated set is empty at resolution %d", len(s.ms)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	return sum / float64(count), nil
}

// WeightedAverage is the height (weighted-average) defuzzifier: the mean of
// the output term centroids weighted by each term's aggregated firing
// strength. It never integrates the aggregated set, making it the cheapest
// method; the paper motivates triangular/trapezoidal shapes with real-time
// operation, for which this is the natural fast path.
//
// Term centroids are precomputed lazily on first use and cached, so a
// WeightedAverage value must not be copied after first use. Obtain one per
// engine via NewWeightedAverage.
type WeightedAverage struct {
	centroids []float64
	forVar    *Variable
}

var _ Defuzzifier = (*WeightedAverage)(nil)

// NewWeightedAverage returns a height defuzzifier. The centroid cache binds
// to the first output variable it sees.
func NewWeightedAverage() *WeightedAverage { return &WeightedAverage{} }

// Name implements Defuzzifier.
func (*WeightedAverage) Name() string { return "weighted-average" }

// Defuzzify implements Defuzzifier.
func (w *WeightedAverage) Defuzzify(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	out := agg.Variable()
	if w.forVar != out {
		if resolution < 2 {
			resolution = 2
		}
		w.centroids = make([]float64, out.NumTerms()) //facs:alloc one-time lazy init; NewEngine primes its own defuzzifier
		for i := range w.centroids {
			w.centroids[i] = out.termCentroidAt(i, resolution)
		}
		w.forVar = out
	}
	return w.mean(agg)
}

// mean is the weighted mean of the cached term centroids. It only reads
// agg, so the engine's aggregated output can stay on the stack.
func (w *WeightedAverage) mean(agg *AggregatedOutput) (float64, error) {
	var num, den float64
	for i := 0; i < agg.NumTerms(); i++ {
		s := agg.Strength(i)
		if s == 0 {
			continue
		}
		num += s * w.centroids[i]
		den += s
	}
	if den == 0 {
		return 0, ErrNoRuleFired
	}
	return num / den, nil
}
