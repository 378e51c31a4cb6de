package fuzzy

// AggregatedOutput is the union (max-aggregation) of all shaped consequent
// sets for one evaluation. It is the function that the area-based
// defuzzifiers integrate.
type AggregatedOutput struct {
	out       *Variable
	strengths []float64    // per output term, max across fired rules
	table     *sampleTable // the engine's output samples; nil outside an engine
}

// Variable returns the output linguistic variable.
func (a *AggregatedOutput) Variable() *Variable { return a.out }

// Strength returns the aggregated firing strength of the i-th output term.
func (a *AggregatedOutput) Strength(i int) float64 { return a.strengths[i] }

// NumTerms returns the number of output terms.
func (a *AggregatedOutput) NumTerms() int { return len(a.strengths) }

// At evaluates the aggregated output membership at crisp point y: the
// max over the fired terms of each term's membership clipped at its
// firing strength (Mamdani min implication).
func (a *AggregatedOutput) At(y float64) float64 {
	var best float64
	for i, w := range a.strengths {
		if w == 0 {
			continue
		}
		// Clip: min(m, w) in this exact form, which the builtin min
		// does not match on NaN and ±0.
		if m := a.out.terms[i].MF.Membership(y); m < w {
			w = m
		}
		if w > best {
			best = w
		}
	}
	return best
}

// Empty reports whether no rule fired (all strengths are zero).
func (a *AggregatedOutput) Empty() bool {
	for _, w := range a.strengths {
		if w > 0 {
			return false
		}
	}
	return true
}

// sampleTable holds an output variable's term memberships at the sample
// points of one defuzzifier resolution, computed once by the same
// Membership calls that At makes. Only non-zero memberships are kept,
// so a sample costs one step per term whose support covers it. It is
// immutable after construction.
type sampleTable struct {
	resolution int
	ys         []float64        // sample points, min + float64(i)*step
	start      []int            // sample i's memberships are pairs[start[i]:start[i+1]]
	pairs      []termMembership // in term order within a sample
	first      []int            // per term: first sample with non-zero membership
	last       []int            // per term: last such sample (< first when none)
}

type termMembership struct {
	term int
	m    float64
}

func newSampleTable(out *Variable, resolution int) *sampleTable {
	min, max := out.Universe()
	step := (max - min) / float64(resolution-1)
	t := &sampleTable{
		resolution: resolution,
		ys:         make([]float64, resolution),
		start:      make([]int, resolution+1),
		first:      make([]int, out.NumTerms()),
		last:       make([]int, out.NumTerms()),
	}
	for k := range t.first {
		t.first[k], t.last[k] = resolution, -1
	}
	for i := range t.ys {
		y := min + float64(i)*step
		t.ys[i] = y
		for k, term := range out.terms {
			if m := term.MF.Membership(y); m != 0 {
				t.pairs = append(t.pairs, termMembership{term: k, m: m})
				if t.first[k] > i {
					t.first[k] = i
				}
				t.last[k] = i
			}
		}
		t.start[i+1] = len(t.pairs)
	}
	return t
}

// hull returns the smallest sample range [lo, hi] that holds every
// non-zero membership of the fired terms (lo > hi when there is none).
func (t *sampleTable) hull(strengths []float64) (lo, hi int) {
	lo, hi = t.resolution, -1
	for k, w := range strengths {
		if w != 0 {
			lo, hi = min(lo, t.first[k]), max(hi, t.last[k])
		}
	}
	return lo, hi
}

// at is At(ys[i]) read from the table. A term with zero membership at
// the sample is absent, which is exact: it would shape to 0 and never
// raise best above its starting 0.
func (t *sampleTable) at(i int, strengths []float64) float64 {
	var best float64
	for _, p := range t.pairs[t.start[i]:t.start[i+1]] {
		w := strengths[p.term]
		if w == 0 {
			continue
		}
		if p.m < w {
			w = p.m
		}
		if w > best {
			best = w
		}
	}
	return best
}

// sampling is a defuzzifier's view of an aggregated output at one
// resolution: sample i sits at y(i) with membership m(i), and every
// sample outside [lo, hi] has membership exactly +0. When the output
// comes from an engine whose table matches the resolution, samples are
// read from the table and [lo, hi] is the hull of the fired terms'
// supports; otherwise they are evaluated through At over the whole
// universe. Both give the same bits (see the package documentation).
type sampling struct {
	agg      *AggregatedOutput
	tab      *sampleTable
	min, max float64
	step     float64
	n        int
	lo, hi   int
}

func (a *AggregatedOutput) sampling(resolution int) sampling {
	if resolution < 2 {
		resolution = 2
	}
	min, max := a.out.Universe()
	s := sampling{
		agg:  a,
		min:  min,
		max:  max,
		step: (max - min) / float64(resolution-1),
		n:    resolution,
		hi:   resolution - 1,
	}
	if t := a.table; t != nil && t.resolution == resolution {
		s.tab = t
		s.lo, s.hi = t.hull(a.strengths)
	}
	return s
}

// y returns the i-th sample point.
func (s *sampling) y(i int) float64 {
	if s.tab != nil {
		return s.tab.ys[i]
	}
	return s.min + float64(i)*s.step
}

// m returns the aggregated membership at the i-th sample point.
func (s *sampling) m(i int) float64 {
	if s.tab != nil {
		return s.tab.at(i, s.agg.strengths)
	}
	return s.agg.At(s.y(i))
}
