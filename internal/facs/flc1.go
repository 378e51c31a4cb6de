package facs

import (
	"fmt"

	"facs/internal/fuzzy"
)

// FLC1 term names (paper Section 3.1).
const (
	// Input variable names.
	VarSpeed    = "S"
	VarAngle    = "A"
	VarDistance = "D"
	// Output variable name.
	VarCv = "Cv"
)

// Speed terms T(S) = {Slow, Middle, Fast}.
const (
	TermSlow   = "Sl"
	TermMiddle = "M"
	TermFast   = "Fa"
)

// Angle terms T(A) = {Back1, Left1, Left2, Straight, Right1, Right2, Back2}.
const (
	TermBack1    = "B1"
	TermLeft1    = "L1"
	TermLeft2    = "L2"
	TermStraight = "St"
	TermRight1   = "R1"
	TermRight2   = "R2"
	TermBack2    = "B2"
)

// Distance terms T(D) = {Near, Far}.
const (
	TermNear = "N"
	TermFar  = "F"
)

// CvTerm returns the i-th correction-value term name, "Cv1".."Cv9".
func CvTerm(i int) string { return fmt.Sprintf("Cv%d", i) }

// frb1Row is one row of the paper's Table 1.
type frb1Row struct {
	S, A, D string
	Cv      int // consequent term index 1..9
}

// FRB1 is the paper's Table 1, all 42 rules in row order.
var frb1 = [42]frb1Row{
	{TermSlow, TermBack1, TermNear, 3},
	{TermSlow, TermBack1, TermFar, 1},
	{TermSlow, TermLeft1, TermNear, 4},
	{TermSlow, TermLeft1, TermFar, 2},
	{TermSlow, TermLeft2, TermNear, 5},
	{TermSlow, TermLeft2, TermFar, 3},
	{TermSlow, TermStraight, TermNear, 9},
	{TermSlow, TermStraight, TermFar, 3},
	{TermSlow, TermRight1, TermNear, 5},
	{TermSlow, TermRight1, TermFar, 2},
	{TermSlow, TermRight2, TermNear, 4},
	{TermSlow, TermRight2, TermFar, 2},
	{TermSlow, TermBack2, TermNear, 3},
	{TermSlow, TermBack2, TermFar, 1},
	{TermMiddle, TermBack1, TermNear, 2},
	{TermMiddle, TermBack1, TermFar, 1},
	{TermMiddle, TermLeft1, TermNear, 4},
	{TermMiddle, TermLeft1, TermFar, 1},
	{TermMiddle, TermLeft2, TermNear, 8},
	{TermMiddle, TermLeft2, TermFar, 5},
	{TermMiddle, TermStraight, TermNear, 9},
	{TermMiddle, TermStraight, TermFar, 7},
	{TermMiddle, TermRight1, TermNear, 8},
	{TermMiddle, TermRight1, TermFar, 5},
	{TermMiddle, TermRight2, TermNear, 4},
	{TermMiddle, TermRight2, TermFar, 1},
	{TermMiddle, TermBack2, TermNear, 2},
	{TermMiddle, TermBack2, TermFar, 1},
	{TermFast, TermBack1, TermNear, 1},
	{TermFast, TermBack1, TermFar, 1},
	{TermFast, TermLeft1, TermNear, 1},
	{TermFast, TermLeft1, TermFar, 2},
	{TermFast, TermLeft2, TermNear, 6},
	{TermFast, TermLeft2, TermFar, 8},
	{TermFast, TermStraight, TermNear, 9},
	{TermFast, TermStraight, TermFar, 9},
	{TermFast, TermRight1, TermNear, 6},
	{TermFast, TermRight1, TermFar, 8},
	{TermFast, TermRight2, TermNear, 1},
	{TermFast, TermRight2, TermFar, 2},
	{TermFast, TermBack2, TermNear, 1},
	{TermFast, TermBack2, TermFar, 1},
}

// FRB1Rules returns the paper's Table 1 as engine rules, in row order.
func FRB1Rules() []fuzzy.Rule {
	rules := make([]fuzzy.Rule, 0, len(frb1))
	for _, row := range frb1 {
		rules = append(rules, fuzzy.Rule{
			If: []fuzzy.Clause{
				{Var: VarSpeed, Term: row.S},
				{Var: VarAngle, Term: row.A},
				{Var: VarDistance, Term: row.D},
			},
			Then:   fuzzy.Clause{Var: VarCv, Term: CvTerm(row.Cv)},
			Weight: 1,
		})
	}
	return rules
}

// NewSpeedVariable builds the FLC1 input S per paper Fig. 5(a).
func NewSpeedVariable(p Params) (*fuzzy.Variable, error) {
	slow, err := fuzzy.NewTrapezoidal(0, p.SlowPlateauEnd, 0, p.MiddleCenter-p.SlowPlateauEnd)
	if err != nil {
		return nil, fmt.Errorf("facs: speed %s: %w", TermSlow, err)
	}
	middle, err := fuzzy.NewTriangular(p.MiddleCenter, p.MiddleCenter-p.SlowPlateauEnd, p.FastPlateauStart-p.MiddleCenter)
	if err != nil {
		return nil, fmt.Errorf("facs: speed %s: %w", TermMiddle, err)
	}
	fast, err := fuzzy.NewTrapezoidal(p.FastPlateauStart, p.SpeedMax, p.FastPlateauStart-p.MiddleCenter, 0)
	if err != nil {
		return nil, fmt.Errorf("facs: speed %s: %w", TermFast, err)
	}
	return fuzzy.NewVariable(VarSpeed, 0, p.SpeedMax,
		fuzzy.Term{Name: TermSlow, MF: slow},
		fuzzy.Term{Name: TermMiddle, MF: middle},
		fuzzy.Term{Name: TermFast, MF: fast},
	)
}

// NewAngleVariable builds the FLC1 input A per paper Fig. 5(b).
func NewAngleVariable(p Params) (*fuzzy.Variable, error) {
	hw := p.AngleHalfWidth
	// The Back shoulders fall to zero exactly at the Left1/Right1 centres
	// (±2·hw), keeping the partition hole-free.
	backFall := p.BackPlateauStart - 2*hw
	b1, err := fuzzy.NewTrapezoidal(-p.AngleMax, -p.BackPlateauStart, 0, backFall)
	if err != nil {
		return nil, fmt.Errorf("facs: angle %s: %w", TermBack1, err)
	}
	b2, err := fuzzy.NewTrapezoidal(p.BackPlateauStart, p.AngleMax, backFall, 0)
	if err != nil {
		return nil, fmt.Errorf("facs: angle %s: %w", TermBack2, err)
	}
	tri := func(name string, center float64) (fuzzy.Term, error) {
		mf, err := fuzzy.NewTriangular(center, hw, hw)
		if err != nil {
			return fuzzy.Term{}, fmt.Errorf("facs: angle %s: %w", name, err)
		}
		return fuzzy.Term{Name: name, MF: mf}, nil
	}
	l1, err := tri(TermLeft1, -2*hw)
	if err != nil {
		return nil, err
	}
	l2, err := tri(TermLeft2, -hw)
	if err != nil {
		return nil, err
	}
	st, err := tri(TermStraight, 0)
	if err != nil {
		return nil, err
	}
	r1, err := tri(TermRight1, hw)
	if err != nil {
		return nil, err
	}
	r2, err := tri(TermRight2, 2*hw)
	if err != nil {
		return nil, err
	}
	return fuzzy.NewVariable(VarAngle, -p.AngleMax, p.AngleMax,
		fuzzy.Term{Name: TermBack1, MF: b1},
		l1, l2, st, r1, r2,
		fuzzy.Term{Name: TermBack2, MF: b2},
	)
}

// NewDistanceVariable builds the FLC1 input D per paper Fig. 5(c).
func NewDistanceVariable(p Params) (*fuzzy.Variable, error) {
	near, err := fuzzy.NewTriangular(0, 0, p.DistanceMax)
	if err != nil {
		return nil, fmt.Errorf("facs: distance %s: %w", TermNear, err)
	}
	far, err := fuzzy.NewTriangular(p.DistanceMax, p.DistanceMax, 0)
	if err != nil {
		return nil, fmt.Errorf("facs: distance %s: %w", TermFar, err)
	}
	return fuzzy.NewVariable(VarDistance, 0, p.DistanceMax,
		fuzzy.Term{Name: TermNear, MF: near},
		fuzzy.Term{Name: TermFar, MF: far},
	)
}

// NewCvVariable builds the correction-value variable (FLC1 output) per
// paper Fig. 5(d): nine terms with shoulder trapezoids at both ends.
func NewCvVariable(p Params) (*fuzzy.Variable, error) {
	terms := make([]fuzzy.Term, 0, 9)
	top := 8 * p.CvSpacing
	first, err := fuzzy.NewTrapezoidal(0, p.CvShoulderPlateau, 0, p.CvSpacing)
	if err != nil {
		return nil, fmt.Errorf("facs: %s: %w", CvTerm(1), err)
	}
	terms = append(terms, fuzzy.Term{Name: CvTerm(1), MF: first})
	for i := 2; i <= 8; i++ {
		mf, err := fuzzy.NewTriangular(float64(i-1)*p.CvSpacing, p.CvSpacing, p.CvSpacing)
		if err != nil {
			return nil, fmt.Errorf("facs: %s: %w", CvTerm(i), err)
		}
		terms = append(terms, fuzzy.Term{Name: CvTerm(i), MF: mf})
	}
	last, err := fuzzy.NewTrapezoidal(top-p.CvShoulderPlateau, top, p.CvSpacing, 0)
	if err != nil {
		return nil, fmt.Errorf("facs: %s: %w", CvTerm(9), err)
	}
	terms = append(terms, fuzzy.Term{Name: CvTerm(9), MF: last})
	return fuzzy.NewVariable(VarCv, 0, top, terms...)
}

// NewFLC1 compiles the prediction controller with the paper's variables
// and FRB1. Engine options (the defuzzifier) may be overridden.
func NewFLC1(p Params, opts ...fuzzy.Option) (*fuzzy.Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSpeedVariable(p)
	if err != nil {
		return nil, err
	}
	a, err := NewAngleVariable(p)
	if err != nil {
		return nil, err
	}
	d, err := NewDistanceVariable(p)
	if err != nil {
		return nil, err
	}
	cv, err := NewCvVariable(p)
	if err != nil {
		return nil, err
	}
	eng, err := fuzzy.NewEngine([]*fuzzy.Variable{s, a, d}, cv, FRB1Rules(), opts...)
	if err != nil {
		return nil, fmt.Errorf("facs: compiling FLC1: %w", err)
	}
	return eng, nil
}
