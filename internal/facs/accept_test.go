package facs

import (
	"fmt"
	"math"
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

// cvInterval is a closed range of correction values on which the
// admission verdict is certain, as a row of the accept table holds it.
type cvInterval struct {
	lo, hi float64
	accept bool
}

// rowIntervals returns the intervals of the row a request reads,
// filling it first (through a decision on an empty range) if no
// decision has.
func rowIntervals(tab *acceptTable, handoff bool, requestBU, usedBU int) []cvInterval {
	tab.decide(handoff, requestBU, usedBU, math.NaN(), math.NaN())
	row := &tab.rows[tab.rowOf(handoff, requestBU, usedBU)]
	n, accepts := unpackHeader(row[0].Load())
	out := make([]cvInterval, n)
	for i := range out {
		out[i] = cvInterval{
			lo:     math.Float64frombits(row[1+2*i].Load()),
			hi:     math.Float64frombits(row[2+2*i].Load()),
			accept: accepts&(1<<i) != 0,
		}
	}
	return out
}

// TestDecisionTableMatchesExact forces every row of the accept table,
// on an unbiased controller (whose handoffs read the new-call rows) and
// on a biased one (whose handoffs have rows of their own), and checks each interval
// against the exact engines: at its ends, at 15 points evenly spaced
// inside it and at the middle of its first and last finest piece, the
// exact FLC2 verdict (System.evaluateCv) must be the interval's, and a
// point lookup of the table there, as the compiled controller's exact
// fallback makes, must return it. Intervals are sorted, disjoint,
// non-empty and end on the dyadic grid, and no row of either
// controller fills its slots: a full row would keep only a prefix.
//
// R runs up to RequestMax+2 and Cs up to CapacityBU+3, so the clamped
// last rows are also checked through inputs outside the universes.
func TestDecisionTableMatchesExact(t *testing.T) {
	const inside = 15
	var evaluated, points [2]int
	for _, bias := range []float64{0, biasedHandoffBias} {
		cc, err := NewCompiled(0, WithHandoffBias(bias))
		if err != nil {
			t.Fatal(err)
		}
		sys, tab := cc.sys, &cc.table
		unit := (tab.cvMax - tab.cvMin) / acceptUnits
		rMax, csMax := int(sys.params.RequestMax)+2, int(sys.params.CapacityBU)+3
		widest := 0
		for _, handoff := range []bool{false, true} {
			for r := 0; r <= rMax; r++ {
				for u := 0; u <= csMax; u++ {
					ivs := rowIntervals(tab, handoff, r, u)
					where := func(iv cvInterval) string {
						return fmt.Sprintf("bias %v, handoff %v, R %d, Cs %d, interval [%v, %v] accept=%v",
							bias, handoff, r, u, iv.lo, iv.hi, iv.accept)
					}
					widest = max(widest, len(ivs))
					if len(ivs) >= acceptSlots {
						t.Fatalf("bias %v, handoff %v, R %d, Cs %d: row holds %d intervals, the slot cap", bias, handoff, r, u, len(ivs))
					}
					for k, iv := range ivs {
						lo, hi := math.Max(iv.lo, tab.cvMin), math.Min(iv.hi, tab.cvMax)
						if !(lo < hi) || (k > 0 && !(ivs[k-1].hi < iv.lo)) {
							t.Fatalf("%s: empty, unsorted or overlapping (row %v)", where(iv), ivs)
						}
						for _, end := range []float64{lo, hi} {
							if q := (end - tab.cvMin) / unit; q != math.Trunc(q) {
								t.Fatalf("%s: end %v is off the dyadic grid", where(iv), end)
							}
						}
						class := 0
						if iv.accept {
							class = 1
						}
						evaluated[class]++
						cvs := []float64{lo, hi, lo + unit/2, hi - unit/2}
						for i := 1; i <= inside; i++ {
							cvs = append(cvs, lo+(hi-lo)*float64(i)/(inside+1))
						}
						for _, cv := range cvs {
							ev, err := sys.evaluateCv(cv, r, u, handoff)
							if err != nil {
								t.Fatal(err)
							}
							if ev.Accepted != iv.accept {
								t.Fatalf("%s: exact A/R at Cv %v is %v", where(iv), cv, ev.AR)
							}
							if got, ok := tab.decide(handoff, r, u, cv, cv); !ok || got != iv.accept {
								t.Fatalf("%s: point lookup at Cv %v = (%v, %v)", where(iv), cv, got, ok)
							}
							points[class]++
						}
					}
				}
			}
		}
		want := int64(len(tab.rows))
		if rows, encl := cc.RowsFilled(); rows != want || encl < rows || (bias == 0) != (want == int64(tab.nR*tab.nCs)) {
			t.Fatalf("bias %v: %d rows filled with %d enclosures, want all %d", bias, rows, encl, want)
		}
		t.Logf("bias %v: widest row holds %d intervals", bias, widest)
	}
	if evaluated[0] == 0 || evaluated[1] == 0 {
		t.Fatalf("tables hold %d reject and %d accept intervals, want both", evaluated[0], evaluated[1])
	}
	t.Logf("%d reject / %d accept intervals checked at %d / %d points", evaluated[0], evaluated[1], points[0], points[1])
}

// TestAcceptRowFillStopsAtSlotCap: a row whose certain pieces would
// need more than acceptSlots intervals keeps the first acceptSlots and
// stops bisecting.
func TestAcceptRowFillStopsAtSlotCap(t *testing.T) {
	tab := &goldenCompiled(t).table
	f := rowFill{t: tab}
	for k := 0; k <= acceptSlots; k++ {
		f.add(2*k, 2*k+1, k%2 == 0)
	}
	if f.n != acceptSlots || !f.full {
		t.Fatalf("after %d disjoint pieces: %d intervals, full=%v", acceptSlots+1, f.n, f.full)
	}
	f.bisect(0, acceptUnits)
	if f.enclosures != 0 {
		t.Fatalf("a full fill enclosed %d more pieces", f.enclosures)
	}
	if last := f.ivs[acceptSlots-1]; last != (unitInterval{2 * (acceptSlots - 1), 2*acceptSlots - 1, acceptSlots%2 == 1}) {
		t.Fatalf("last kept interval is %+v", last)
	}
}

// BenchmarkAcceptRowFill times the fill of accept-table rows, cycling
// over every row of the default table, and reports the cost of one
// FLC2 enclosure (ns/enclosure) and the enclosures per row.
func BenchmarkAcceptRowFill(b *testing.B) {
	cc, err := NewCompiled(0)
	if err != nil {
		b.Fatal(err)
	}
	tab := &cc.table
	k := 0
	for b.Loop() {
		tab.rows[k][0].Store(0)
		tab.fill(k)
		k = (k + 1) % len(tab.rows)
	}
	rows, encl := cc.RowsFilled()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(encl), "ns/enclosure")
	b.ReportMetric(float64(encl)/float64(rows), "enclosures/row")
}
