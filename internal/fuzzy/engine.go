package fuzzy

import (
	"fmt"
	"sort"
)

// Engine is a compiled Mamdani fuzzy-logic controller: the fuzzifier,
// inference engine, rule base and defuzzifier of the paper's Fig. 2, bound
// to concrete linguistic variables.
//
// An Engine is immutable after construction and safe for concurrent use.
type Engine struct {
	inputs     []*Variable
	inputIdx   map[string]int
	output     *Variable
	rules      []compiledRule
	srcRules   []Rule
	defuzz     Defuzzifier
	totalTerms int
	table      *sampleTable // output memberships at engineResolution's samples
}

type compiledRule struct {
	clauses []int // indices into the flat fuzzified-degree vector
	outTerm int
	weight  float64
}

// engineResolution is the sample count of an engine's integral
// defuzzifiers, sample table and coverage checks.
const engineResolution = 201

// Stack scratch for one evaluation: engines with at most this many
// input terms and output terms evaluate without touching the heap.
const (
	scratchDegrees   = 64
	scratchStrengths = 32
)

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithDefuzzifier selects the defuzzification method (default Centroid).
func WithDefuzzifier(d Defuzzifier) Option { return func(e *Engine) { e.defuzz = d } }

// NewEngine compiles a controller from its input variables, output variable
// and rule base. Every rule clause must reference a declared variable and
// term; a rule may omit input variables (it then fires regardless of them)
// but must not reference the same variable twice. All variables must cover
// their universes without holes.
func NewEngine(inputs []*Variable, output *Variable, rules []Rule, opts ...Option) (*Engine, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("fuzzy: engine needs at least one input variable")
	}
	if output == nil {
		return nil, fmt.Errorf("fuzzy: engine needs an output variable")
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fuzzy: engine needs at least one rule")
	}
	e := &Engine{
		inputs:   append([]*Variable(nil), inputs...),
		inputIdx: make(map[string]int, len(inputs)),
		output:   output,
		srcRules: append([]Rule(nil), rules...),
		defuzz:   Centroid{},
	}
	for i, v := range e.inputs {
		if v == nil {
			return nil, fmt.Errorf("fuzzy: input variable %d is nil", i)
		}
		if _, dup := e.inputIdx[v.Name()]; dup {
			return nil, fmt.Errorf("fuzzy: duplicate input variable %q", v.Name())
		}
		if v.Name() == output.Name() {
			return nil, fmt.Errorf("fuzzy: output variable %q also appears as an input", v.Name())
		}
		e.inputIdx[v.Name()] = i
		e.totalTerms += v.NumTerms()
	}
	for _, opt := range opts {
		opt(e)
	}
	for _, v := range e.inputs {
		if err := v.CheckCoverage(engineResolution); err != nil {
			return nil, err
		}
	}
	if err := output.CheckCoverage(engineResolution); err != nil {
		return nil, err
	}
	e.table = newSampleTable(output)
	e.rules = make([]compiledRule, 0, len(rules))
	for i, r := range rules {
		cr, err := e.compileRule(r)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: rule %d: %w", i, err)
		}
		e.rules = append(e.rules, cr)
	}
	// Prime cache-bearing defuzzifiers so that EvaluateVec stays read-only
	// and therefore safe for concurrent use.
	if wa, ok := e.defuzz.(*WeightedAverage); ok {
		agg := &AggregatedOutput{out: e.output, strengths: make([]float64, e.output.NumTerms())}
		agg.strengths[0] = 1
		if _, err := wa.Defuzzify(agg, engineResolution); err != nil {
			return nil, fmt.Errorf("fuzzy: priming weighted-average defuzzifier: %w", err)
		}
	}
	return e, nil
}

// MustEngine is like NewEngine but panics on error. It is intended for
// statically known controllers such as the paper's FLC1 and FLC2.
func MustEngine(inputs []*Variable, output *Variable, rules []Rule, opts ...Option) *Engine {
	e, err := NewEngine(inputs, output, rules, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

func (e *Engine) compileRule(r Rule) (compiledRule, error) {
	if err := r.Validate(); err != nil {
		return compiledRule{}, err
	}
	cr := compiledRule{clauses: make([]int, 0, len(r.If)), weight: r.Weight}
	if cr.weight == 0 {
		cr.weight = 1
	}
	seen := make(map[int]bool, len(r.If))
	for _, c := range r.If {
		vi, ok := e.inputIdx[c.Var]
		if !ok {
			return compiledRule{}, fmt.Errorf("unknown input variable %q", c.Var)
		}
		if seen[vi] {
			return compiledRule{}, fmt.Errorf("variable %q referenced twice in one rule", c.Var)
		}
		seen[vi] = true
		ti, ok := e.inputs[vi].TermIndex(c.Term)
		if !ok {
			return compiledRule{}, fmt.Errorf("variable %q has no term %q", c.Var, c.Term)
		}
		off := 0
		for _, v := range e.inputs[:vi] {
			off += v.NumTerms()
		}
		cr.clauses = append(cr.clauses, off+ti)
	}
	if r.Then.Var != e.output.Name() {
		return compiledRule{}, fmt.Errorf("consequent references %q, want output variable %q", r.Then.Var, e.output.Name())
	}
	ti, ok := e.output.TermIndex(r.Then.Term)
	if !ok {
		return compiledRule{}, fmt.Errorf("output variable %q has no term %q", e.output.Name(), r.Then.Term)
	}
	cr.outTerm = ti
	return cr, nil
}

// Inputs returns the input variables in declaration order.
func (e *Engine) Inputs() []*Variable { return append([]*Variable(nil), e.inputs...) }

// Output returns the output variable.
func (e *Engine) Output() *Variable { return e.output }

// Rules returns a copy of the source rule base.
func (e *Engine) Rules() []Rule { return append([]Rule(nil), e.srcRules...) }

// NumRules returns the size of the rule base.
func (e *Engine) NumRules() int { return len(e.rules) }

// EvaluateVec runs one inference with crisp inputs given in input
// declaration order. It is the allocation-free fast path: with a
// built-in defuzzifier and an engine within the stack scratch it makes
// no heap allocation.
func (e *Engine) EvaluateVec(vals ...float64) (float64, error) {
	var degBuf [scratchDegrees]float64
	var strBuf [scratchStrengths]float64
	degrees, strengths := degBuf[:], strBuf[:]
	if e.totalTerms > len(degBuf) {
		degrees = make([]float64, e.totalTerms) //facs:alloc heap fallback for engines larger than the stack scratch
	}
	if n := e.output.NumTerms(); n > len(strBuf) {
		strengths = make([]float64, n) //facs:alloc heap fallback for engines larger than the stack scratch
	} else {
		strengths = strBuf[:n]
	}
	if err := e.fire(vals, degrees, strengths, nil); err != nil {
		return 0, err
	}
	return e.defuzzify(strengths)
}

// Infer runs fuzzification and rule aggregation, returning the aggregated
// output fuzzy set without defuzzifying it.
func (e *Engine) Infer(vals []float64) (*AggregatedOutput, error) {
	agg := &AggregatedOutput{
		out:       e.output,
		strengths: make([]float64, e.output.NumTerms()),
		table:     e.table,
	}
	if err := e.fire(vals, make([]float64, e.totalTerms), agg.strengths, nil); err != nil {
		return nil, err
	}
	return agg, nil
}

// fire fuzzifies vals into degrees (length totalTerms) and max-aggregates
// the rule firing strengths per output term into strengths, which must
// be zero on entry. When ruleW is non-nil it receives every rule's
// strength. It is the one firing loop behind EvaluateVec, Infer and
// Explain.
func (e *Engine) fire(vals, degrees, strengths, ruleW []float64) error {
	if len(vals) != len(e.inputs) {
		return fmt.Errorf("fuzzy: got %d input values, want %d", len(vals), len(e.inputs)) //facs:alloc reject/error path; formats nothing on the steady-state wave
	}
	off := 0
	for i, v := range e.inputs {
		n := v.NumTerms()
		v.FuzzifyInto(vals[i], degrees[off:off+n])
		off += n
	}
	for i, r := range e.rules {
		w := r.weight
		for _, d := range r.clauses {
			// Min t-norm as "w < deg ? w : deg", which the builtin
			// min does not match on NaN and ±0.
			if deg := degrees[d]; !(w < deg) {
				w = deg
			}
			if w == 0 {
				break
			}
		}
		if ruleW != nil {
			ruleW[i] = w
		}
		if w > strengths[r.outTerm] {
			strengths[r.outTerm] = w
		}
	}
	return nil
}

// defuzzify reduces aggregated term strengths to the crisp output. The
// built-in defuzzifiers are called statically so that the aggregated
// output stays on the caller's stack; a custom Defuzzifier receives a
// heap copy, because the interface call lets its argument escape.
func (e *Engine) defuzzify(strengths []float64) (float64, error) {
	agg := AggregatedOutput{out: e.output, strengths: strengths, table: e.table}
	switch d := e.defuzz.(type) {
	case Centroid:
		return d.Defuzzify(&agg, engineResolution)
	case Bisector:
		return d.Defuzzify(&agg, engineResolution)
	case MeanOfMaxima:
		return d.Defuzzify(&agg, engineResolution)
	case *WeightedAverage:
		if d.forVar == e.output {
			return d.mean(&agg) // centroids primed by NewEngine
		}
	}
	heap := &AggregatedOutput{ //facs:alloc custom defuzzifiers only: the interface call lets the aggregated output escape
		out:       e.output,
		strengths: append([]float64(nil), strengths...), //facs:alloc custom defuzzifiers only
		table:     e.table,
	}
	return e.defuzz.Defuzzify(heap, engineResolution)
}

// RuleActivation reports the firing strength of one rule for one inference.
type RuleActivation struct {
	Index    int
	Rule     Rule
	Strength float64
}

// Explanation is a human-readable trace of one inference.
type Explanation struct {
	// Inputs holds the clamped crisp input values in declaration order.
	Inputs []float64
	// Fired lists rules with non-zero strength, strongest first.
	Fired []RuleActivation
	// Output is the defuzzified crisp result.
	Output float64
	// OutputTerm is the output term with the highest membership at Output.
	OutputTerm string
}

// Explain runs one inference and reports which rules fired and how strongly.
// It is intended for debugging, testing and interactive exploration rather
// than hot paths.
func (e *Engine) Explain(vals []float64) (*Explanation, error) {
	degrees := make([]float64, e.totalTerms)
	strengths := make([]float64, e.output.NumTerms())
	ruleW := make([]float64, len(e.rules))
	if err := e.fire(vals, degrees, strengths, ruleW); err != nil {
		return nil, err
	}
	out, err := e.defuzzify(strengths)
	if err != nil {
		return nil, err
	}
	ex := &Explanation{
		Inputs:     make([]float64, len(vals)),
		Output:     out,
		OutputTerm: e.output.HighestTerm(out),
	}
	for i, v := range e.inputs {
		ex.Inputs[i] = v.Clamp(vals[i])
	}
	for i, w := range ruleW {
		if w > 0 {
			ex.Fired = append(ex.Fired, RuleActivation{Index: i, Rule: e.srcRules[i], Strength: w})
		}
	}
	sort.SliceStable(ex.Fired, func(a, b int) bool { return ex.Fired[a].Strength > ex.Fired[b].Strength })
	return ex, nil
}
