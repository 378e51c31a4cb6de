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

// sampleTable holds an output variable's term memberships at the
// engine's engineResolution sample points y_i = min + float64(i)*step,
// computed once by the same Membership calls that At makes. Each term
// keeps one dense slice, its memberships from its first to its last
// non-zero sample, so an aggregate is built term by term over
// contiguous samples. It is immutable after construction.
type sampleTable struct {
	mem   [][]float64 // per term: memberships at samples first..last
	first []int       // per term: first sample with non-zero membership
	last  []int       // per term: last such sample (< first when none)
}

func newSampleTable(out *Variable) *sampleTable {
	lo, hi := out.Universe()
	step := (hi - lo) / float64(engineResolution-1)
	t := &sampleTable{
		mem:   make([][]float64, out.NumTerms()),
		first: make([]int, out.NumTerms()),
		last:  make([]int, out.NumTerms()),
	}
	for k, term := range out.terms {
		row := make([]float64, engineResolution)
		first, last := engineResolution, -1
		for i := range row {
			if row[i] = term.MF.Membership(lo + float64(i)*step); row[i] != 0 {
				first, last = min(first, i), i
			}
		}
		t.first[k], t.last[k] = first, last
		if first <= last {
			t.mem[k] = row[first : last+1]
		}
	}
	return t
}

// hull returns the smallest sample range [lo, hi] that holds every
// non-zero membership of the fired terms ([0, -1] when there is none).
func (t *sampleTable) hull(strengths []float64) (lo, hi int) {
	lo, hi = engineResolution, -1
	for k, w := range strengths {
		if w != 0 {
			lo, hi = min(lo, t.first[k]), max(hi, t.last[k])
		}
	}
	if lo > hi {
		return 0, -1
	}
	return lo, hi
}

// aggregate writes At(y_i) into agg[i] for every sample, term by term
// in term order; agg must be all +0 on entry. Each sample sees the same
// sequence of clips as At, so it ends with the same bits (see the
// package documentation).
func (t *sampleTable) aggregate(strengths []float64, agg *[engineResolution]float64) {
	for k, w := range strengths {
		if w == 0 {
			continue
		}
		mem := t.mem[k]
		dst := agg[t.first[k]:][:len(mem)]
		for i, m := range mem {
			c := w
			if m < c {
				c = m
			}
			if c > dst[i] {
				dst[i] = c
			}
		}
	}
}

// sampling is a defuzzifier's view of an aggregated output at one
// resolution: sample i sits at y(i) = min + float64(i)*step with
// membership ms[i], and every sample outside [lo, hi] has membership
// exactly +0. When the output comes from an engine and the resolution
// is engineResolution, the samples are aggregated from the table and
// [lo, hi] is the hull of the fired terms' supports; otherwise every
// sample is evaluated through At. Both give the same bits (see the
// package documentation).
type sampling struct {
	ms        []float64
	min, step float64
	lo, hi    int
}

// sampling fills ms in buf, which must be all +0; a resolution above
// engineResolution outside the table samples into a heap slice.
func (a *AggregatedOutput) sampling(resolution int, buf *[engineResolution]float64) sampling {
	resolution = max(resolution, 2)
	min, max := a.out.Universe()
	s := sampling{min: min, step: (max - min) / float64(resolution-1), hi: resolution - 1}
	if t := a.table; t != nil && resolution == engineResolution {
		s.ms = buf[:]
		s.lo, s.hi = t.hull(a.strengths)
		t.aggregate(a.strengths, buf)
		return s
	}
	if resolution <= engineResolution {
		s.ms = buf[:resolution]
	} else {
		s.ms = make([]float64, resolution) //facs:alloc Defuzzify above the engine resolution only; engines sample through the table
	}
	for i := range s.ms {
		s.ms[i] = a.At(s.y(i))
	}
	return s
}

// y returns the i-th sample point, by the expression the table was
// sampled with.
func (s *sampling) y(i int) float64 { return s.min + float64(i)*s.step }
