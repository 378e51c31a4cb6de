package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The reference* functions are the At-based sampling loops that the
// built-in defuzzifiers ran before the engine's sample table existed,
// kept verbatim as the oracle for TestEngineMatchesSamplingReference.

func referenceCentroid(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	if resolution < 2 {
		resolution = 2
	}
	min, max := agg.Variable().Universe()
	step := (max - min) / float64(resolution-1)
	var num, den float64
	for i := 0; i < resolution; i++ {
		y := min + float64(i)*step
		m := agg.At(y)
		num += y * m
		den += m
	}
	if den == 0 {
		return 0, fmt.Errorf("fuzzy: centroid is undefined: aggregated area is zero at resolution %d", resolution)
	}
	return num / den, nil
}

func referenceBisector(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	if resolution < 2 {
		resolution = 2
	}
	min, max := agg.Variable().Universe()
	step := (max - min) / float64(resolution-1)
	samples := make([]float64, resolution)
	var total float64
	for i := range samples {
		samples[i] = agg.At(min + float64(i)*step)
		total += samples[i]
	}
	if total == 0 {
		return 0, fmt.Errorf("fuzzy: bisector is undefined: aggregated area is zero at resolution %d", resolution)
	}
	var acc float64
	for i, m := range samples {
		acc += m
		if acc >= total/2 {
			return min + float64(i)*step, nil
		}
	}
	return max, nil
}

func referenceMeanOfMaxima(agg *AggregatedOutput, resolution int) (float64, error) {
	if agg.Empty() {
		return 0, ErrNoRuleFired
	}
	if resolution < 2 {
		resolution = 2
	}
	min, max := agg.Variable().Universe()
	step := (max - min) / float64(resolution-1)
	const eps = 1e-12
	var best, sum float64
	var count int
	for i := 0; i < resolution; i++ {
		y := min + float64(i)*step
		m := agg.At(y)
		switch {
		case m > best+eps:
			best, sum, count = m, y, 1
		case m >= best-eps && m > 0:
			sum += y
			count++
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("fuzzy: mean-of-maxima is undefined: aggregated set is empty at resolution %d", resolution)
	}
	return sum / float64(count), nil
}

// referenceDefuzzify dispatches to the oracle loop of a built-in
// defuzzifier.
func referenceDefuzzify(d Defuzzifier, agg *AggregatedOutput, resolution int) (float64, error) {
	switch d.(type) {
	case Centroid:
		return referenceCentroid(agg, resolution)
	case Bisector:
		return referenceBisector(agg, resolution)
	case MeanOfMaxima:
		return referenceMeanOfMaxima(agg, resolution)
	}
	panic("no reference for " + d.Name())
}

// paperFLC1 is the paper's prediction controller (speed, angle and
// distance to the correction value Cv) at its default break-points.
func paperFLC1(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	speed := MustVariable("S", 0, 120,
		Term{Name: "Sl", MF: MustTrapezoidal(0, 15, 0, 15)},
		Term{Name: "M", MF: MustTriangular(30, 15, 30)},
		Term{Name: "Fa", MF: MustTrapezoidal(60, 120, 30, 0)},
	)
	angle := MustVariable("A", -180, 180,
		Term{Name: "B1", MF: MustTrapezoidal(-180, -135, 0, 45)},
		Term{Name: "L1", MF: MustTriangular(-90, 45, 45)},
		Term{Name: "L2", MF: MustTriangular(-45, 45, 45)},
		Term{Name: "St", MF: MustTriangular(0, 45, 45)},
		Term{Name: "R1", MF: MustTriangular(45, 45, 45)},
		Term{Name: "R2", MF: MustTriangular(90, 45, 45)},
		Term{Name: "B2", MF: MustTrapezoidal(135, 180, 45, 0)},
	)
	distance := MustVariable("D", 0, 10,
		Term{Name: "N", MF: MustTriangular(0, 0, 10)},
		Term{Name: "F", MF: MustTriangular(10, 10, 0)},
	)
	cvTerms := []Term{{Name: "Cv1", MF: MustTrapezoidal(0, 0.0625, 0, 0.125)}}
	for i := 2; i <= 8; i++ {
		cvTerms = append(cvTerms, Term{Name: fmt.Sprintf("Cv%d", i), MF: MustTriangular(float64(i-1)*0.125, 0.125, 0.125)})
	}
	cvTerms = append(cvTerms, Term{Name: "Cv9", MF: MustTrapezoidal(0.9375, 1, 0.125, 0)})
	cv := MustVariable("Cv", 0, 1, cvTerms...)
	// Table 1: consequent Cv index per (S, A, D) in row order.
	consequents := [42]int{
		3, 1, 4, 2, 5, 3, 9, 3, 5, 2, 4, 2, 3, 1,
		2, 1, 4, 1, 8, 5, 9, 7, 8, 5, 4, 1, 2, 1,
		1, 1, 1, 2, 6, 8, 9, 9, 6, 8, 1, 2, 1, 1,
	}
	var rules []Rule
	for i, c := range consequents {
		rules = append(rules, Rule{
			If: []Clause{
				{"S", []string{"Sl", "M", "Fa"}[i/14]},
				{"A", []string{"B1", "L1", "L2", "St", "R1", "R2", "B2"}[i/2%7]},
				{"D", []string{"N", "F"}[i%2]},
			},
			Then: Clause{"Cv", fmt.Sprintf("Cv%d", c)},
		})
	}
	return mustTestEngine(t, []*Variable{speed, angle, distance}, cv, rules, opts...)
}

// paperFLC2 is the paper's admission controller (Cv, request and
// counter state to the accept/reject value) at its default break-points.
func paperFLC2(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	cv := MustVariable("Cv", 0, 1,
		Term{Name: "B", MF: MustTriangular(0, 0, 0.5)},
		Term{Name: "N", MF: MustTriangular(0.5, 0.5, 0.5)},
		Term{Name: "G", MF: MustTriangular(1, 0.5, 0)},
	)
	request := MustVariable("R", 0, 10,
		Term{Name: "T", MF: MustTriangular(0, 0, 5)},
		Term{Name: "Vo", MF: MustTriangular(5, 5, 5)},
		Term{Name: "Vi", MF: MustTriangular(10, 5, 0)},
	)
	counter := MustVariable("Cs", 0, 40,
		Term{Name: "S", MF: MustTriangular(0, 0, 20)},
		Term{Name: "M", MF: MustTriangular(20, 20, 20)},
		Term{Name: "F", MF: MustTriangular(40, 20, 0)},
	)
	ar := MustVariable("AR", -1, 1,
		Term{Name: "R", MF: MustTrapezoidal(-1, -0.75, 0, 0.5)},
		Term{Name: "WR", MF: MustTriangular(-0.5, 0.5, 0.5)},
		Term{Name: "NRNA", MF: MustTriangular(0, 0.5, 0.5)},
		Term{Name: "WA", MF: MustTriangular(0.5, 0.5, 0.5)},
		Term{Name: "A", MF: MustTrapezoidal(0.75, 1, 0.5, 0)},
	)
	// Table 2: consequent per (Cv, R, Cs) in row order.
	consequents := strings.Fields(`
		A NRNA NRNA  A NRNA WR    WA NRNA WR
		A NRNA NRNA  A NRNA NRNA  WA NRNA NRNA
		A A NRNA     A A WR       A A R`)
	var rules []Rule
	for i, c := range consequents {
		rules = append(rules, Rule{
			If: []Clause{
				{"Cv", []string{"B", "N", "G"}[i/9]},
				{"R", []string{"T", "Vo", "Vi"}[i/3%3]},
				{"Cs", []string{"S", "M", "F"}[i%3]},
			},
			Then: Clause{"AR", c},
		})
	}
	return mustTestEngine(t, []*Variable{cv, request, counter}, ar, rules, opts...)
}

// smoothEngine mixes triangles, trapezoids and shoulders of uneven
// widths with two zero-width triangles (singletons): "dot" sits on a
// sample point at some resolutions (201 among them) and "spike" at 1/3
// on none. No rule fires for x >= 1 with y <= 3 (ErrNoRuleFired), and
// for x >= 1 with y > 9 only "spike" fires (a zero-area aggregate).
func smoothEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	x := MustVariable("x", -5, 5,
		Term{Name: "lo", MF: MustLeftShoulder(-2, 3)},
		Term{Name: "mid", MF: MustTriangular(0, 3, 3)},
		Term{Name: "hi", MF: MustRightShoulder(4, 2)},
	)
	y := MustVariable("y", 0, 10,
		Term{Name: "low", MF: MustTriangular(2, 3, 4)},
		Term{Name: "high", MF: MustTrapezoidal(6, 9, 3, 0)},
		Term{Name: "top", MF: MustRightShoulder(9, 0)},
	)
	z := MustVariable("z", -2, 3,
		Term{Name: "neg", MF: MustLeftShoulder(-1.5, 1)},
		Term{Name: "bump", MF: MustTriangular(0, 1, 0.7)},
		Term{Name: "bell", MF: MustTrapezoidal(1, 1.4, 0.5, 0.3)},
		Term{Name: "tri", MF: MustTriangular(2, 1, 0.5)},
		Term{Name: "pos", MF: MustRightShoulder(2.5, 0.5)},
		Term{Name: "dot", MF: MustTriangular(0.5, 0, 0)},
		Term{Name: "spike", MF: MustTriangular(1.0/3, 0, 0)},
	)
	rules := []Rule{
		{If: []Clause{{"x", "lo"}}, Then: Clause{"z", "neg"}},
		{If: []Clause{{"x", "lo"}, {"y", "low"}}, Then: Clause{"z", "bell"}, Weight: 0.5},
		{If: []Clause{{"x", "mid"}, {"y", "high"}}, Then: Clause{"z", "bump"}},
		{If: []Clause{{"x", "mid"}, {"y", "high"}}, Then: Clause{"z", "tri"}, Weight: 0.8},
		{If: []Clause{{"x", "mid"}, {"y", "high"}}, Then: Clause{"z", "dot"}, Weight: 0.7},
		{If: []Clause{{"x", "hi"}, {"y", "high"}}, Then: Clause{"z", "pos"}},
		{If: []Clause{{"y", "top"}}, Then: Clause{"z", "spike"}},
	}
	return mustTestEngine(t, []*Variable{x, y}, z, rules, opts...)
}

func mustTestEngine(t *testing.T, inputs []*Variable, output *Variable, rules []Rule, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(inputs, output, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// referenceInputs draws input vectors: uniform over each universe
// widened by 10% on both sides, a quarter of them rounded to integers,
// and every 50th coordinate NaN.
func referenceInputs(rng *rand.Rand, e *Engine, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		vals := make([]float64, len(e.inputs))
		for k, v := range e.inputs {
			lo, hi := v.Universe()
			pad := (hi - lo) / 10
			x := lo - pad + rng.Float64()*(hi-lo+2*pad)
			switch r := rng.Intn(200); {
			case r < 4:
				x = math.NaN()
			case r < 54:
				x = math.Round(x)
			}
			vals[k] = x
		}
		out[i] = vals
	}
	return out
}

// sameResult reports whether two (value, error) pairs are identical:
// equal float bits, or errors with the same identity and message.
func sameResult(got float64, gotErr error, want float64, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil &&
			errors.Is(gotErr, ErrNoRuleFired) == errors.Is(wantErr, ErrNoRuleFired) &&
			gotErr.Error() == wantErr.Error()
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestEngineMatchesSamplingReference pins the tabulated defuzzifiers to
// the At-based sampling loops bit for bit: EvaluateVec, Explain and a
// direct Defuzzify of Infer's aggregate at the engine's resolution (so
// through the table) must all return the oracle's float bits or its
// exact error, and so must Defuzzify at other resolutions (so through
// At).
func TestEngineMatchesSamplingReference(t *testing.T) {
	engines := []struct {
		name  string
		build func(*testing.T, ...Option) *Engine
	}{
		{"flc1", paperFLC1},
		{"flc2", paperFLC2},
		{"smooth", smoothEngine},
	}
	defuzzifiers := []Defuzzifier{Centroid{}, Bisector{}, MeanOfMaxima{}}
	otherResolutions := []int{2, 3, 208, 1001}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for _, eng := range engines {
		for _, d := range defuzzifiers {
			name := eng.name + "/" + d.Name()
			e := eng.build(t, WithDefuzzifier(d))
			for _, vals := range referenceInputs(rng, e, 600) {
				agg, err := e.Infer(vals)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := referenceDefuzzify(d, agg, engineResolution)
				switch {
				case wantErr == nil:
					counts["value"]++
				case errors.Is(wantErr, ErrNoRuleFired):
					counts["no rule fired"]++
				default:
					counts["zero area"]++
				}
				got, gotErr := e.EvaluateVec(vals...)
				if !sameResult(got, gotErr, want, wantErr) {
					t.Fatalf("%s: EvaluateVec(%v) = %v, %v; reference %v, %v", name, vals, got, gotErr, want, wantErr)
				}
				got, gotErr = d.Defuzzify(agg, engineResolution)
				if !sameResult(got, gotErr, want, wantErr) {
					t.Fatalf("%s: Defuzzify(Infer(%v)) = %v, %v; reference %v, %v", name, vals, got, gotErr, want, wantErr)
				}
				var exOut float64
				ex, exErr := e.Explain(vals)
				if exErr == nil {
					exOut = ex.Output
				}
				if !sameResult(exOut, exErr, want, wantErr) {
					t.Fatalf("%s: Explain(%v) = %v, %v; reference %v, %v", name, vals, exOut, exErr, want, wantErr)
				}
				for _, res := range otherResolutions {
					want, wantErr = referenceDefuzzify(d, agg, res)
					got, gotErr = d.Defuzzify(agg, res)
					if !sameResult(got, gotErr, want, wantErr) {
						t.Fatalf("%s: Defuzzify(Infer(%v), %d) = %v, %v; reference %v, %v", name, vals, res, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
	// The edge cases must actually have been exercised.
	for _, k := range []string{"value", "no rule fired", "zero area"} {
		if counts[k] == 0 {
			t.Errorf("no reference evaluation ended in %q", k)
		}
	}
	t.Logf("reference outcomes: %v", counts)
}
