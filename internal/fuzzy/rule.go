package fuzzy

import (
	"fmt"
	"strings"
)

// Clause names one (variable, term) pair, e.g. {"S", "Sl"} for "S is Sl".
type Clause struct {
	Var  string
	Term string
}

// String renders the clause as "Var is Term".
func (c Clause) String() string { return c.Var + " is " + c.Term }

// Rule is a single fuzzy IF/THEN rule. All antecedent clauses are combined
// with AND (the min t-norm). Weight scales the firing strength; zero
// weight is replaced by one at compile time so that the zero value of the
// field means "unweighted".
type Rule struct {
	If     []Clause
	Then   Clause
	Weight float64
}

// String renders the rule as text, e.g.
// "IF S is Sl AND A is B1 THEN Cv is Cv3 [0.8]"; the bracketed weight
// appears only when it is neither 0 nor 1.
func (r Rule) String() string {
	parts := make([]string, len(r.If))
	for i, c := range r.If {
		parts[i] = c.String()
	}
	s := "IF " + strings.Join(parts, " AND ") + " THEN " + r.Then.String()
	if r.Weight != 0 && r.Weight != 1 {
		s += fmt.Sprintf(" [%g]", r.Weight)
	}
	return s
}

// Validate performs structural checks that do not require the variables.
func (r Rule) Validate() error {
	if len(r.If) == 0 {
		return fmt.Errorf("fuzzy: rule %q has no antecedent", r.String())
	}
	for _, c := range r.If {
		if c.Var == "" || c.Term == "" {
			return fmt.Errorf("fuzzy: rule %q has an empty antecedent clause", r.String())
		}
	}
	if r.Then.Var == "" || r.Then.Term == "" {
		return fmt.Errorf("fuzzy: rule %q has an empty consequent", r.String())
	}
	if r.Weight < 0 || r.Weight > 1 {
		return fmt.Errorf("fuzzy: rule %q weight %g outside [0, 1]", r.String(), r.Weight)
	}
	return nil
}
