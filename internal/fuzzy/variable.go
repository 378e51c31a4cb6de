package fuzzy

import (
	"fmt"
	"math"
	"strings"
)

// Term is a named fuzzy set over a variable's universe, e.g. "Slow" on a
// speed variable.
type Term struct {
	Name string
	MF   MembershipFunc
}

// Variable is a linguistic variable: a named crisp universe [Min, Max]
// partitioned by a set of named terms.
//
// Crisp inputs are clamped to the universe before fuzzification, which is
// how shoulder terms whose plateau touches the universe edge behave as
// "everything at or beyond this edge".
type Variable struct {
	name  string
	min   float64
	max   float64
	terms []Term
	index map[string]int
}

// NewVariable constructs a linguistic variable. The name must be non-empty,
// min < max must hold, at least one term is required, and term names must
// be unique and non-empty.
func NewVariable(name string, min, max float64, terms ...Term) (*Variable, error) {
	switch {
	case strings.TrimSpace(name) == "":
		return nil, fmt.Errorf("fuzzy: variable name must not be empty")
	case math.IsNaN(min) || math.IsNaN(max) || math.IsInf(min, 0) || math.IsInf(max, 0):
		return nil, fmt.Errorf("fuzzy: variable %q universe bounds must be finite, got [%v, %v]", name, min, max)
	case min >= max:
		return nil, fmt.Errorf("fuzzy: variable %q universe [%v, %v] is empty", name, min, max)
	case len(terms) == 0:
		return nil, fmt.Errorf("fuzzy: variable %q needs at least one term", name)
	}
	index := make(map[string]int, len(terms))
	for i, t := range terms {
		if strings.TrimSpace(t.Name) == "" {
			return nil, fmt.Errorf("fuzzy: variable %q term %d has an empty name", name, i)
		}
		if t.MF == nil {
			return nil, fmt.Errorf("fuzzy: variable %q term %q has a nil membership function", name, t.Name)
		}
		if _, dup := index[t.Name]; dup {
			return nil, fmt.Errorf("fuzzy: variable %q has duplicate term %q", name, t.Name)
		}
		index[t.Name] = i
	}
	v := &Variable{
		name:  name,
		min:   min,
		max:   max,
		terms: append([]Term(nil), terms...),
		index: index,
	}
	return v, nil
}

// MustVariable is like NewVariable but panics on invalid parameters. It is
// intended for statically known variables such as the paper's controllers.
func MustVariable(name string, min, max float64, terms ...Term) *Variable {
	v, err := NewVariable(name, min, max, terms...)
	if err != nil {
		panic(err)
	}
	return v
}

// Name returns the variable name.
func (v *Variable) Name() string { return v.name }

// Universe returns the crisp domain [min, max] of the variable.
func (v *Variable) Universe() (min, max float64) { return v.min, v.max }

// Terms returns a copy of the variable's terms in declaration order.
func (v *Variable) Terms() []Term { return append([]Term(nil), v.terms...) }

// NumTerms returns the number of terms.
func (v *Variable) NumTerms() int { return len(v.terms) }

// TermAt returns the i-th term in declaration order.
func (v *Variable) TermAt(i int) Term { return v.terms[i] }

// TermIndex returns the position of the named term, or false if absent.
func (v *Variable) TermIndex(name string) (int, bool) {
	i, ok := v.index[name]
	return i, ok
}

// Term returns the named term, or false if absent.
func (v *Variable) Term(name string) (Term, bool) {
	i, ok := v.index[name]
	if !ok {
		return Term{}, false
	}
	return v.terms[i], true
}

// Clamp restricts x to the variable's universe. NaN clamps to the lower
// bound so that downstream code never observes NaN.
func (v *Variable) Clamp(x float64) float64 {
	switch {
	case math.IsNaN(x), x < v.min:
		return v.min
	case x > v.max:
		return v.max
	default:
		return x
	}
}

// FuzzifyInto writes the membership degree of x (after clamping) in each
// term into dst, in declaration order; dst must have length NumTerms.
func (v *Variable) FuzzifyInto(x float64, dst []float64) {
	x = v.Clamp(x)
	for i, t := range v.terms {
		dst[i] = t.MF.Membership(x)
	}
}

// Membership returns the degree of x in the named term.
func (v *Variable) Membership(term string, x float64) (float64, error) {
	i, ok := v.index[term]
	if !ok {
		return 0, fmt.Errorf("fuzzy: variable %q has no term %q", v.name, term)
	}
	return v.terms[i].MF.Membership(v.Clamp(x)), nil
}

// CheckCoverage verifies that every point of the universe (sampled at the
// given resolution, at least 2) has non-zero membership in at least one
// term. A partition with coverage holes silently produces zero firing
// strengths, so controllers should validate their variables at build time.
func (v *Variable) CheckCoverage(resolution int) error {
	if resolution < 2 {
		resolution = 2
	}
	step := (v.max - v.min) / float64(resolution-1)
	for i := 0; i < resolution; i++ {
		x := v.min + float64(i)*step
		covered := false
		for _, t := range v.terms {
			if t.MF.Membership(x) > 0 {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("fuzzy: variable %q has a coverage hole at %v", v.name, x)
		}
	}
	return nil
}

// HighestTerm returns the name of the term with the greatest membership at
// x, breaking ties towards the earliest declared term.
func (v *Variable) HighestTerm(x float64) string {
	if i := v.HighestTermIndex(x); i >= 0 {
		return v.terms[i].Name
	}
	return ""
}

// HighestTermIndex is HighestTerm as a position in declaration order, or
// -1 when no membership compares greater than -Inf (every one is NaN).
func (v *Variable) HighestTermIndex(x float64) int {
	best, bestDeg := -1, math.Inf(-1)
	x = v.Clamp(x)
	for i, t := range v.terms {
		if d := t.MF.Membership(x); d > bestDeg {
			best, bestDeg = i, d
		}
	}
	return best
}

// termCentroidAt returns the centroid of the i-th term's membership
// function restricted to the variable's universe, computed by numeric
// integration at the given resolution (at least 2 samples). It is used by
// the weighted-average defuzzifier.
func (v *Variable) termCentroidAt(i, resolution int) float64 {
	if resolution < 2 {
		resolution = 2
	}
	mf := v.terms[i].MF
	step := (v.max - v.min) / float64(resolution-1)
	var num, den float64
	for k := 0; k < resolution; k++ {
		x := v.min + float64(k)*step
		m := mf.Membership(x)
		num += x * m
		den += m
	}
	if den == 0 {
		// Degenerate term (e.g. a zero-width triangle between samples):
		// fall back to the kernel midpoint clamped to the universe.
		lo, hi := mf.Kernel()
		return v.Clamp((lo + hi) / 2)
	}
	return num / den
}

// String returns a compact description such as "S[0,120]{Sl,M,Fa}".
func (v *Variable) String() string {
	names := make([]string, len(v.terms))
	for i, t := range v.terms {
		names[i] = t.Name
	}
	return fmt.Sprintf("%s[%g,%g]{%s}", v.name, v.min, v.max, strings.Join(names, ","))
}
