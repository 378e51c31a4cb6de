package fuzzy

import (
	"fmt"
	"math"
)

// enclosurePadUlps is the rounding pad of an enclosure in units of
// 2^-53 times the output universe's magnitude, per output sample: the
// package documentation ("Enclosures") derives a need of (4n+11) for n
// samples, and 8(n+2) is twice that.
const enclosurePadUlps = 8 * (engineResolution + 2)

// Enclosure bounds a Centroid engine's output over input boxes: for a
// box it returns an interval that holds EvaluateVec at every point of
// the box, as computed, rounding included. The package documentation
// ("Enclosures") gives the method and derives its rounding pad.
//
// An Enclosure reads its engine only and is safe for concurrent use.
type Enclosure struct {
	e *Engine
	// bps holds each input term's breakpoints (support and kernel
	// ends, possibly infinite), in the engine's flat degree order.
	bps [][4]float64
	pad float64
}

// NewEnclosure prepares enclosures of e. It refuses an engine it cannot
// bound: a defuzzifier other than Centroid, an input term that is not
// Triangular or Trapezoidal, or more terms than EvaluateVec's stack
// scratch holds. The output terms may have any shape, since they enter
// only through the engine's sample table.
func NewEnclosure(e *Engine) (*Enclosure, error) {
	if e == nil {
		return nil, fmt.Errorf("fuzzy: enclosure needs an engine")
	}
	if _, ok := e.defuzz.(Centroid); !ok {
		return nil, fmt.Errorf("fuzzy: enclosures need the centroid defuzzifier, engine has %s", e.defuzz.Name())
	}
	if e.totalTerms > scratchDegrees || e.output.NumTerms() > scratchStrengths {
		return nil, fmt.Errorf("fuzzy: enclosures support at most %d input and %d output terms", scratchDegrees, scratchStrengths)
	}
	x := &Enclosure{e: e, bps: make([][4]float64, 0, e.totalTerms)}
	for _, v := range e.inputs {
		for _, t := range v.terms {
			switch t.MF.(type) {
			case Triangular, Trapezoidal:
			default:
				return nil, fmt.Errorf("fuzzy: enclosures need triangular or trapezoidal inputs, %s term %q is %T", v.name, t.Name, t.MF)
			}
			sLo, sHi := t.MF.Support()
			kLo, kHi := t.MF.Kernel()
			x.bps = append(x.bps, [4]float64{sLo, kLo, kHi, sHi})
		}
	}
	lo, hi := e.output.Universe()
	x.pad = enclosurePadUlps * 0x1p-53 * math.Max(math.Abs(lo), math.Abs(hi))
	return x, nil
}

// Enclose returns [lo, hi] holding EvaluateVec(v...) for every v with
// boxLo[i] <= v[i] <= boxHi[i] in input declaration order. Each end is
// clamped to its universe first, as EvaluateVec clamps its inputs. Both
// ends are NaN when no rule can fire anywhere in the box, where
// EvaluateVec fails. It allocates nothing.
func (x *Enclosure) Enclose(boxLo, boxHi []float64) (lo, hi float64) {
	e := x.e
	var dLo, dHi [scratchDegrees]float64
	off := 0
	for i, v := range e.inputs {
		a, b := v.Clamp(boxLo[i]), v.Clamp(boxHi[i])
		for k := range v.terms {
			mf := v.terms[k].MF
			fa, fb := mf.Membership(a), mf.Membership(b)
			l, h := min(fa, fb), max(fa, fb)
			for _, p := range x.bps[off+k] {
				if p > a && p < b {
					f := mf.Membership(p)
					l, h = min(l, f), max(h, f)
				}
			}
			dLo[off+k], dHi[off+k] = l, h
		}
		off += len(v.terms)
	}
	var sLo, sHi [scratchStrengths]float64
	for _, r := range e.rules {
		wl, wh := r.weight, r.weight
		for _, d := range r.clauses {
			wl, wh = min(wl, dLo[d]), min(wh, dHi[d])
		}
		sLo[r.outTerm] = max(sLo[r.outTerm], wl)
		sHi[r.outTerm] = max(sHi[r.outTerm], wh)
	}
	n := e.output.NumTerms()
	lo, hi = x.centroidRange(sLo[:n], sHi[:n])
	return lo - x.pad, hi + x.pad
}

// centroidRange is the Karnik–Mendel range of the centroid over every
// aggregate between the term strengths sLo and sHi, before the pad:
// each switch point's centroid from prefix and suffix sums, the
// largest with the low memberships at and below it and the high ones
// above, the smallest the other way round.
func (x *Enclosure) centroidRange(sLo, sHi []float64) (lo, hi float64) {
	t := x.e.table
	first, last := t.hull(sHi)
	if first > last {
		return math.NaN(), math.NaN()
	}
	var mLo, mHi [engineResolution]float64
	t.aggregate(sLo, &mLo)
	t.aggregate(sHi, &mHi)
	umin, umax := x.e.output.Universe()
	s := sampling{min: umin, step: (umax - umin) / float64(engineResolution-1)}
	// suf*[i] sums samples i..last: y·m and m, for the low and high
	// memberships.
	var sufYLo, sufLo, sufYHi, sufHi [engineResolution + 1]float64
	for i := last; i >= first; i-- {
		y := s.y(i)
		sufYLo[i], sufLo[i] = sufYLo[i+1]+y*mLo[i], sufLo[i+1]+mLo[i]
		sufYHi[i], sufHi[i] = sufYHi[i+1]+y*mHi[i], sufHi[i+1]+mHi[i]
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	var preYLo, preLo, preYHi, preHi float64
	// Switch point k: samples first..k on one side, k+1..last on the
	// other. A switch point with no mass defines no centroid.
	for k := first - 1; k <= last; k++ {
		if k >= first {
			y := s.y(k)
			preYLo, preLo = preYLo+y*mLo[k], preLo+mLo[k]
			preYHi, preHi = preYHi+y*mHi[k], preHi+mHi[k]
		}
		if d := preLo + sufHi[k+1]; d > 0 {
			hi = max(hi, (preYLo+sufYHi[k+1])/d)
		}
		if d := preHi + sufLo[k+1]; d > 0 {
			lo = min(lo, (preYHi+sufYLo[k+1])/d)
		}
	}
	if lo > hi {
		return math.NaN(), math.NaN()
	}
	return lo, hi
}
