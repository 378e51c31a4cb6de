package fuzzy

import "math"

// gridEval evaluates one engine over the nodes of a compile grid, for
// one compile worker. Consecutive grid queries mostly differ in the
// last axis only, so it keeps what the previous query left behind:
// the fuzzified degrees of every axis, every rule's running min before
// its first clause on each axis level, the rules still unbroken at each
// level, and the defuzzified value of recently seen strength vectors.
// Every result has the bits Engine.EvaluateVec returns for the same
// inputs, error included; Engine.fire stays the reference loop that the
// tests hold it to.
type gridEval struct {
	e       *Engine
	d       int
	last    []float64 // inputs of the previous query
	valid   int       // leading axes whose degrees and rule states match last
	degrees []float64
	offs    []int // axis k's degrees are degrees[offs[k]:offs[k+1]]
	// Level a of rule r covers its clauses from[r*(d+1)+a] up to
	// from[r*(d+1)+a+1]: from[.+a] is the first clause, in rule order,
	// whose axis is at least a. state[r*(d+1)+a] is the rule's running
	// min before that clause, so it depends on axes below a only.
	from      []int32
	state     []float64
	live      [][]int32 // live[a]: rules not yet broken off entering level a, in order
	strengths []float64
	memo      *defuzzMemo // nil unless the defuzzifier is sampled
	hits      int         // memo lookups answered, for tests
}

func newGridEval(e *Engine) *gridEval {
	d := len(e.inputs)
	g := &gridEval{
		e:         e,
		d:         d,
		last:      make([]float64, d),
		degrees:   make([]float64, e.totalTerms),
		offs:      make([]int, d+1),
		from:      make([]int32, len(e.rules)*(d+1)),
		state:     make([]float64, len(e.rules)*(d+1)),
		live:      make([][]int32, d+1),
		strengths: make([]float64, e.output.NumTerms()),
	}
	for k, v := range e.inputs {
		g.offs[k+1] = g.offs[k] + v.NumTerms()
	}
	axis := func(deg int) int {
		k := 0
		for deg >= g.offs[k+1] {
			k++
		}
		return k
	}
	for a := range g.live {
		g.live[a] = make([]int32, 0, len(e.rules))
	}
	for r, rule := range e.rules {
		for a := 0; a <= d; a++ {
			p := 0
			for p < len(rule.clauses) && axis(rule.clauses[p]) < a {
				p++
			}
			g.from[r*(d+1)+a] = int32(p)
		}
		g.state[r*(d+1)] = rule.weight
		g.live[0] = append(g.live[0], int32(r))
	}
	// The sampled built-in defuzzifiers are pure functions of the
	// strength bits and cost far more than a memo lookup.
	switch e.defuzz.(type) {
	case Centroid, Bisector, MeanOfMaxima:
		g.memo = newDefuzzMemo(len(g.strengths))
	}
	return g
}

// eval returns EvaluateVec(vals...) for len(vals) == number of inputs.
// It re-fuzzifies the axes from the first one whose input bits differ
// from the previous query and replays each live rule's min from that
// axis level on, with the same comparisons fire makes in the same
// clause order.
func (g *gridEval) eval(vals []float64) (float64, error) {
	a := 0
	for a < g.valid && math.Float64bits(vals[a]) == math.Float64bits(g.last[a]) {
		a++
	}
	for k := a; k < g.d; k++ {
		g.last[k] = vals[k]
		g.e.inputs[k].FuzzifyInto(vals[k], g.degrees[g.offs[k]:g.offs[k+1]])
	}
	for b := a; b < g.d; b++ {
		g.advance(b)
	}
	g.valid = g.d
	clear(g.strengths)
	for _, r := range g.live[g.d] {
		if w, k := g.state[int(r)*(g.d+1)+g.d], g.e.rules[r].outTerm; w > g.strengths[k] {
			g.strengths[k] = w
		}
	}
	if g.memo == nil {
		return g.e.defuzzify(g.strengths)
	}
	i, ok := g.memo.lookup(g.strengths)
	if ok {
		g.hits++
		return g.memo.vals[i], nil
	}
	y, err := g.e.defuzzify(g.strengths)
	if err == nil {
		g.memo.store(i, g.strengths, y)
	}
	return y, err
}

// advance runs the clauses of level b for every rule live at b and
// collects the survivors into live[b+1]. A rule whose min reaches 0
// breaks off as in fire: its strength is then ±0, which never raises
// an aggregated strength.
func (g *gridEval) advance(b int) {
	next := g.live[b+1][:0]
	for _, r := range g.live[b] {
		at := int(r)*(g.d+1) + b
		w := g.state[at]
		alive := true
		for _, c := range g.e.rules[r].clauses[g.from[at]:g.from[at+1]] {
			if deg := g.degrees[c]; !(w < deg) {
				w = deg
			}
			if w == 0 {
				alive = false
				break
			}
		}
		if alive {
			g.state[at+1] = w
			next = append(next, r)
		}
	}
	g.live[b+1] = next
}

// memoBits sizes a compile worker's defuzzification memo: 4096 slots
// hold most of a default FLC1 slab's distinct strength vectors.
const (
	memoBits  = 12
	memoSlots = 1 << memoBits
)

// defuzzMemo is a direct-mapped cache from the full bit pattern of a
// strength vector to its defuzzified value. A slot answers only when
// every key word matches; a colliding vector replaces it. Errors are
// never stored.
type defuzzMemo struct {
	n    int
	keys []uint64 // slot i's key is keys[i*n : i*n+n]
	vals []float64
	full []bool
}

func newDefuzzMemo(n int) *defuzzMemo {
	return &defuzzMemo{
		n:    n,
		keys: make([]uint64, memoSlots*n),
		vals: make([]float64, memoSlots),
		full: make([]bool, memoSlots),
	}
}

// lookup returns the slot of strengths and whether it holds them.
func (m *defuzzMemo) lookup(strengths []float64) (int, bool) {
	h := uint64(0xcbf29ce484222325)
	for _, w := range strengths {
		h = (h ^ math.Float64bits(w)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	i := int(h >> (64 - memoBits))
	if !m.full[i] {
		return i, false
	}
	for k, key := range m.keys[i*m.n : i*m.n+m.n] {
		if math.Float64bits(strengths[k]) != key {
			return i, false
		}
	}
	return i, true
}

// store fills slot i with strengths and their defuzzified value.
func (m *defuzzMemo) store(i int, strengths []float64, y float64) {
	key := m.keys[i*m.n : i*m.n+m.n]
	for k, w := range strengths {
		key[k] = math.Float64bits(w)
	}
	m.vals[i], m.full[i] = y, true
}
