package facs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// biasedHandoffBias gives handoff rows of the accept table their own
// threshold, so the handoff half of the table is not a copy of the
// new-call half.
const biasedHandoffBias = 0.2

var biasedCompiled struct {
	once sync.Once
	ctrl *CompiledController
	err  error
}

// goldenBiasedCompiled returns a shared default-grid compiled system
// whose handoffs carry biasedHandoffBias.
func goldenBiasedCompiled(t *testing.T) *CompiledController {
	t.Helper()
	biasedCompiled.once.Do(func() {
		biasedCompiled.ctrl, biasedCompiled.err = NewCompiled(0, WithHandoffBias(biasedHandoffBias))
	})
	if biasedCompiled.err != nil {
		t.Fatal(biasedCompiled.err)
	}
	return biasedCompiled.ctrl
}

// TestDecisionTableMatchesExact checks every certain interval of every
// accept-table row against the exact engines: for each (handoff, R, Cs)
// row it takes 8 evenly spaced Cv points, ends included, in every Cv
// cell each interval overlaps, and requires the exact FLC2 verdict there
// (System.Evaluate's second stage) to be the interval's class, and a
// point lookup of the table at that Cv, as the compiled controller's
// exact fallback makes, to return it.
//
// R runs up to RequestMax+2 and Cs up to CapacityBU+3, downwards, so the
// clamped last rows are first read, and checked, through inputs outside
// the universes. A row equal to one already checked — the same surface
// row at the same threshold, as on the handoff half of an unbiased
// table or past the universe ends — must hold the same intervals and is
// not re-evaluated.
func TestDecisionTableMatchesExact(t *testing.T) {
	const perCell = 8
	type rowKey struct {
		r, u int
		thr  float64
	}
	checked := make(map[rowKey][]cvInterval)
	var evaluated, points, classes [2]int
	for _, cc := range []*CompiledController{goldenCompiled(t), goldenBiasedCompiled(t)} {
		sys := cc.sys
		nodes := cc.FLC2Surface().Axes()[0].Nodes()
		rMax, csMax := int(sys.params.RequestMax)+2, int(sys.params.CapacityBU)+3
		for _, handoff := range []bool{false, true} {
			thr := sys.acceptThreshold
			if handoff {
				thr -= sys.handoffBias
			}
			for r := rMax; r >= 0; r-- {
				for u := csMax; u >= 0; u-- {
					ivs := cc.table.intervals(handoff, r, u)
					key := rowKey{min(r, cc.table.nR-1), min(u, cc.table.nCs-1), thr}
					if seen, ok := checked[key]; ok {
						if !reflect.DeepEqual(seen, ivs) {
							t.Fatalf("row (handoff %v, R %d, Cs %d) holds %v, an equal row holds %v", handoff, r, u, ivs, seen)
						}
						continue
					}
					checked[key] = ivs
					for _, iv := range ivs {
						lo, hi := math.Max(iv.lo, nodes[0]), math.Min(iv.hi, nodes[len(nodes)-1])
						if lo > hi {
							t.Fatalf("row (handoff %v, R %d, Cs %d) holds %+v outside the Cv universe", handoff, r, u, iv)
						}
						class := 0
						if iv.accept {
							class = 1
						}
						evaluated[class]++
						for k := 0; k+1 < len(nodes); k++ {
							a, b := math.Max(lo, nodes[k]), math.Min(hi, nodes[k+1])
							if a > b {
								continue
							}
							for i := 0; i < perCell; i++ {
								cv := a + (b-a)*float64(i)/(perCell-1)
								if i == perCell-1 {
									cv = b
								}
								ev, err := sys.evaluateCv(cv, r, u, handoff)
								if err != nil {
									t.Fatal(err)
								}
								if ev.Accepted != iv.accept {
									t.Fatalf("row (handoff %v, R %d, Cs %d), interval [%v, %v] accept=%v: exact A/R at Cv %v is %v",
										handoff, r, u, iv.lo, iv.hi, iv.accept, cv, ev.AR)
								}
								if got, ok := cc.table.decide(handoff, r, u, cv, cv); !ok || got != iv.accept {
									t.Fatalf("row (handoff %v, R %d, Cs %d), interval [%v, %v] accept=%v: point lookup at Cv %v = (%v, %v)",
										handoff, r, u, iv.lo, iv.hi, iv.accept, cv, got, ok)
								}
								points[class]++
							}
						}
					}
				}
			}
		}
		for _, iv := range cc.table.ivs {
			if iv.accept {
				classes[1]++
			} else {
				classes[0]++
			}
		}
	}
	if classes[0] == 0 || classes[1] == 0 {
		t.Fatalf("tables hold %d reject and %d accept intervals, want both", classes[0], classes[1])
	}
	t.Logf("%d distinct rows; %d reject / %d accept intervals checked at %d / %d points",
		len(checked), evaluated[0], evaluated[1], points[0], points[1])
}
