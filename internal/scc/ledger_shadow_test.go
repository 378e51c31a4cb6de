package scc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"facs/internal/cell"
	"facs/internal/geo"
)

func newSizedNet(tb testing.TB, rings int, radiusM float64) *cell.Network {
	tb.Helper()
	n, err := cell.NewNetwork(cell.NetworkConfig{Rings: rings, CellRadiusM: radiusM})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// shadowInput is one mobile's kinematics at one projection interval.
type shadowInput struct {
	pos      geo.Point
	heading  float64
	speedMps float64
	k        int
}

// randomShadowInput samples kinematics around a network whose stations
// lie within extent metres of the origin: mostly inside coverage, some
// exactly on a station, some far outside (up to 50x the extent), with
// speeds from standstill to 1 km/s and k from -1 to Horizon+1.
func randomShadowInput(rng *rand.Rand, net *cell.Network, extent float64, horizon int) shadowInput {
	in := shadowInput{
		heading: rng.Float64()*360 - 180,
		k:       rng.Intn(horizon+3) - 1,
	}
	switch r := rng.Float64(); {
	case r < 0.6:
		in.pos = geo.Point{X: (2*rng.Float64() - 1) * extent, Y: (2*rng.Float64() - 1) * extent}
	case r < 0.8:
		stations := net.Stations()
		in.pos = stations[rng.Intn(len(stations))].Pos()
	default:
		far := extent * (1 + 49*rng.Float64())
		a := rng.Float64() * 2 * math.Pi
		in.pos = geo.Point{X: far * math.Cos(a), Y: far * math.Sin(a)}
	}
	switch r := rng.Float64(); {
	case r < 0.25:
		in.speedMps = 0
	case r < 0.9:
		in.speedMps = rng.Float64() * 60
	default:
		in.speedMps = rng.Float64() * 1000
	}
	return in
}

// eachShadowInput runs check over the shadow equivalence grid: 0-18
// rings, 100-2000 m cells and configurations that stretch sigma,
// SpreadAlpha and MinProb (down to 1e-30, where the truncation T grows
// past 70 nats), with randomized kinematics per case plus one point so
// far outside coverage that every weight underflows at sigma = 1 m.
func eachShadowInput(t *testing.T, check func(t *testing.T, l *Ledger, in shadowInput)) {
	configs := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"narrow", func(c *Config) { c.SigmaPosM, c.SpreadAlpha = 1, 1e-9 }},
		{"wide", func(c *Config) { c.SigmaPosM, c.SpreadAlpha = 1000, 5 }},
		{"minprob-1e-30", func(c *Config) { c.MinProb = 1e-30 }},
		{"minprob-0.9", func(c *Config) { c.MinProb = 0.9; c.Horizon = 2 }},
		{"narrow-minprob-1e-30", func(c *Config) { c.SigmaPosM, c.MinProb = 1, 1e-30 }},
	}
	samples := 2000
	if testing.Short() {
		samples = 100
	}
	for _, rings := range []int{0, 1, 2, 6, 18} {
		for _, radius := range []float64{100, 500, 2000} {
			net := newSizedNet(t, rings, radius)
			extent := radius * (1.5*float64(rings) + 1)
			for _, cf := range configs {
				n := samples
				if rings == 18 {
					n = samples / 4
				}
				t.Run(fmt.Sprintf("rings=%d/r=%g/%s", rings, radius, cf.name), func(t *testing.T) {
					l := newLedger(t, net, cf.mutate)
					rng := rand.New(rand.NewSource(int64(rings*1000) + int64(radius)))
					inputs := make([]shadowInput, 0, n+1)
					for i := 0; i < n; i++ {
						inputs = append(inputs, randomShadowInput(rng, net, extent, l.cfg.Horizon))
					}
					inputs = append(inputs, shadowInput{pos: geo.Point{X: 50 * extent, Y: -20 * extent}, heading: 90})
					for _, in := range inputs {
						check(t, l, in)
					}
				})
			}
		}
	}
}

// TestLedgerShadowMatchesReference pins every shadow the Ledger derives
// to appendShadow, the reference the recompute Controller uses: for
// randomized kinematics over many geometries and configurations,
// cluster (the class shadow, or the reference itself where a class is
// uncertain) must emit the reference's cells in its order with the
// reservations its probabilities imply. The inputs include standstill,
// out-of-range k, points exactly on stations and points so far outside
// coverage that every weight underflows (the nearest-station collapse).
// Both routes must answer some clusters.
func TestLedgerShadowMatchesReference(t *testing.T) {
	var total classStats
	eachShadowInput(t, func(t *testing.T, l *Ledger, in shadowInput) {
		before := l.classStats
		checkClasses(t, l, in)
		total.shadows += l.classStats.shadows - before.shadows
		total.exact += l.classStats.exact - before.exact
	})
	t.Logf("reference shadow answered %d of %d clusters", total.exact, total.shadows)
	if total.exact == 0 || total.exact == total.shadows {
		t.Fatalf("reference shadow answered %d of %d clusters; want both routes", total.exact, total.shadows)
	}
}

// classBU is the bandwidth the class tests reserve, so a reserve-class
// cell reads classBU and a check-only cell 0.
const classBU = 7

// checkClasses asserts that cluster's answer for in is appendShadow's
// thresholded one: the same cells in the same order,
// each reserving classBU where the reference probability reaches
// InclusionProb and 0 where it does not.
func checkClasses(t *testing.T, l *Ledger, in shadowInput) {
	t.Helper()
	want := appendShadow(&l.cfg, l.stations, make([]float64, len(l.stations)), nil, in.pos, in.heading, in.speedMps, in.k)
	tr := track{bu: classBU, pos: in.pos, headingDeg: in.heading, speedMps: in.speedMps}
	got := l.cluster(nil, &tr, geo.UnitFromHeading(in.heading), in.k)
	checkAgainst(t, l, in, got, want)
}

// checkAgainst asserts that the cluster got lists want's cells in
// order, each reserving classBU where the reference probability reaches
// InclusionProb and 0 where it does not.
func checkAgainst(t *testing.T, l *Ledger, in shadowInput, got []footCell, want []CellProb) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v: cluster has %d cells, reference shadow %d", in, len(got), len(want))
	}
	for i, cp := range want {
		amount := 0
		if cp.Prob >= l.cfg.InclusionProb {
			amount = classBU
		}
		if h := l.stations[got[i].cell].Hex(); h != cp.Hex || got[i].amount != amount {
			t.Fatalf("%+v cell %d: cluster %v reserves %v, reference %v p=%v reserves %v",
				in, i, h, got[i].amount, cp.Hex, cp.Prob, amount)
		}
	}
}

// TestLedgerShadowClassesMatchReference pins the class shadow alone to
// the reference over the shadow equivalence grid: every cluster
// classShadow certifies must list appendShadow's cells with their
// thresholded reservations. It then places points whose reference
// probability lies within 1e-9 of MinProb or of InclusionProb, where
// no certified class exists, and requires the reference fallback to
// answer them. The tail-free case measures the width of that fallback
// band against the class shadow's error budget.
func TestLedgerShadowClassesMatchReference(t *testing.T) {
	var asked, answered int
	eachShadowInput(t, func(t *testing.T, l *Ledger, in shadowInput) {
		tr := track{bu: classBU, pos: in.pos, headingDeg: in.heading, speedMps: in.speedMps}
		var iv interval
		l.project(&iv, &tr, geo.UnitFromHeading(in.heading), in.k)
		asked++
		got, ok := l.classShadow(nil, classBU, &iv, in.k)
		if !ok {
			return
		}
		answered++
		want := appendShadow(&l.cfg, l.stations, make([]float64, len(l.stations)), nil, in.pos, in.heading, in.speedMps, in.k)
		checkAgainst(t, l, in, got, want)
	})
	// Projections off coverage and sigma = 1 m (exponents past
	// shadowCapNats) go to the reference by design; the class shadow
	// must still answer a good share, or the equality is vacuous.
	t.Logf("class shadow answered %d of %d clusters", answered, asked)
	if answered*4 < asked {
		t.Fatalf("class shadow answered %d of %d clusters; want at least a quarter", answered, asked)
	}

	net := newSizedNet(t, 2, 500)
	l := newLedger(t, net)
	if !l.classes {
		t.Fatal("default ledger has the class shadow off")
	}
	prob := segmentProb(l, l.stationPos[0], l.stationPos[1])
	for _, thr := range []float64{l.cfg.MinProb, l.cfg.InclusionProb} {
		// Bisect along the segment between two stations for the point
		// where the second one's probability crosses thr.
		for _, f := range bisectProb(t, prob, thr) {
			if p := prob(f); math.Abs(p-thr) > 1e-9 {
				t.Fatalf("bisection for %v stopped at p=%v", thr, p)
			}
			checkFallback(t, l, segmentInput(l.stationPos[0], l.stationPos[1], f), true)
		}
	}

	t.Run("tail-free", func(t *testing.T) { checkTailFreeBand(t) })
}

// checkTailFreeBand places points around MinProb and InclusionProb in a
// geometry where the class shadow visits every station and every one is
// a candidate, so its normalising sum carries no tail term and the
// fallback band around each threshold is the error budget alone: a
// probability is certified on one side of thr only when it lies beyond
// thr·(1±γ)/(1∓γ), γ the relative slack of weights and sum. The budget
// is restated here from its parts: the e-vs-x exponent slack below
// shadowCapNats, the reference's math.Exp error, the table exp's error
// and four roundings per station plus a few (DESIGN.md, "Shadow
// classes"). Points just inside the band, 2e-11 relative from its
// edge, must take the exact fallback: that margin exceeds what the
// table exp, whose truncation error stays under 7.9e-12, can move a
// probability, but is less than what dropping a part of γ as small as
// 2·tableExpErr takes off the band. Points at ten times the band's
// half-width must be answered by the class shadow itself, and every
// answer must be the reference's.
func checkTailFreeBand(t *testing.T) {
	// One ring of 500 m cells with sigma = 360 m: along the diameter
	// through the centre station every exponent lies within 12·r²·inv
	// = 11.6 nats of the nearest one, inside T = 12.
	net := newSizedNet(t, 1, 500)
	l := newLedger(t, net, func(c *Config) { c.SigmaPosM = 360 })
	if !l.classes {
		t.Fatal("tail-free ledger has the class shadow off")
	}
	var b, opp geo.Point
	for _, p := range l.stationPos {
		if p.X > b.X+1 || (math.Abs(p.X-b.X) <= 1 && p.Y > b.Y) {
			b = p
		}
	}
	opp = geo.Point{X: -b.X, Y: -b.Y}
	n := len(l.stationPos)
	prob := segmentProb(l, opp, b)
	gamma := 2*shadowSlack*(shadowCapNats+2) + 2*shadowExpErr + 2*tableExpErr + 4*float64(n+4)*0x1p-53
	const eta = 2e-11
	for _, thr := range []float64{l.cfg.MinProb, l.cfg.InclusionProb} {
		lower := thr * (1 - gamma) / (1 + gamma)
		upper := thr * (1 + gamma) / (1 - gamma)
		for _, pt := range []struct {
			target   float64
			fallback bool
		}{
			{thr, true},
			{lower * (1 + eta), true},
			{upper * (1 - eta), true},
			{thr * (1 - 20*gamma), false},
			{thr * (1 + 20*gamma), false},
		} {
			for _, f := range bisectProb(t, prob, pt.target) {
				if p := prob(f); math.Abs(p/pt.target-1) > 1e-14 {
					t.Fatalf("bisection for %v stopped at p=%v", pt.target, p)
				}
				in := segmentInput(opp, b, f)
				exps := l.classStats.exps
				checkFallback(t, l, in, pt.fallback)
				if pt.fallback {
					continue
				}
				if got := l.classStats.exps - exps; got != int64(n) {
					t.Fatalf("p=%v: class shadow weighed %d of %d stations; the case is not tail-free", prob(f), got, n)
				}
			}
		}
	}
}

// segmentProb returns the reference probability of station b for a
// mobile at rest at a + f·(b − a), emitted or not: MinProb only filters
// appendShadow's output.
func segmentProb(l *Ledger, a, b geo.Point) func(f float64) float64 {
	all := l.cfg
	all.MinProb = math.SmallestNonzeroFloat64
	weights := make([]float64, len(l.stations))
	return func(f float64) float64 {
		p := geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
		for _, cp := range appendShadow(&all, l.stations, weights, nil, p, 0, 0, 0) {
			if cp.Hex == l.layout.HexAt(b) {
				return cp.Prob
			}
		}
		return 0
	}
}

// segmentInput is a mobile at rest at a + f·(b − a).
func segmentInput(a, b geo.Point, f float64) shadowInput {
	return shadowInput{pos: geo.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}}
}

// bisectProb bisects f in [0, 1] for the point where prob, rising along
// the segment, crosses target, and returns the two closest points that
// bracket it.
func bisectProb(t *testing.T, prob func(float64) float64, target float64) [2]float64 {
	t.Helper()
	lo, hi := 0.0, 1.0
	if !(prob(lo) < target && prob(hi) >= target) {
		t.Fatalf("target %v not bracketed: p(0)=%v p(1)=%v", target, prob(lo), prob(hi))
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if prob(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return [2]float64{lo, hi}
}

// checkFallback runs checkClasses on in and requires the reference
// fallback to have answered it, or the class shadow, as fallback says.
func checkFallback(t *testing.T, l *Ledger, in shadowInput, fallback bool) {
	t.Helper()
	exact := l.classStats.exact
	checkClasses(t, l, in)
	if took := l.classStats.exact != exact; took != fallback {
		t.Fatalf("%+v: exact fallback taken %v, want %v", in, took, fallback)
	}
}

// BenchmarkLedgerShadow times one shadow — the reference appendShadow
// against the Ledger's class shadow (cluster) — at k = 0 and
// k = Horizon, on the 127-cell district and the 1027-cell city geometry
// (500 m cells, the Fig. 10 configuration), over kinematics inside
// coverage. The class case reports exp calls, visited stations and
// reference fallbacks per shadow.
func BenchmarkLedgerShadow(b *testing.B) {
	for _, geom := range []struct {
		name  string
		rings int
	}{{"district", 6}, {"city", 18}} {
		net := newSizedNet(b, geom.rings, 500)
		l, err := NewLedger(Config{Network: net, RequireClusterCoverage: true})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		extent := 500 * (1.5*float64(geom.rings) + 1)
		inputs := make([]shadowInput, 256)
		for i := range inputs {
			for {
				p := geo.Point{X: (2*rng.Float64() - 1) * extent, Y: (2*rng.Float64() - 1) * extent}
				if _, err := net.StationAt(p); err == nil {
					inputs[i] = shadowInput{pos: p, heading: rng.Float64()*360 - 180, speedMps: rng.Float64() * 120 / 3.6}
					break
				}
			}
		}
		for _, k := range []int{0, l.cfg.Horizon} {
			b.Run(fmt.Sprintf("%s/reference/k=%d", geom.name, k), func(b *testing.B) {
				var dst []CellProb
				for i := 0; i < b.N; i++ {
					in := &inputs[i%len(inputs)]
					dst = appendShadow(&l.cfg, l.stations, l.weights, dst[:0], in.pos, in.heading, in.speedMps, k)
				}
			})
			b.Run(fmt.Sprintf("%s/classes/k=%d", geom.name, k), func(b *testing.B) {
				var dst []footCell
				before := l.classStats
				for i := 0; i < b.N; i++ {
					in := &inputs[i%len(inputs)]
					tr := track{bu: 1, pos: in.pos, headingDeg: in.heading, speedMps: in.speedMps}
					dst = l.cluster(dst[:0], &tr, geo.UnitFromHeading(in.heading), k)
				}
				n := float64(b.N)
				b.ReportMetric(float64(l.classStats.exps-before.exps)/n, "exp/op")
				b.ReportMetric(float64(l.classStats.visited-before.visited)/n, "visited/op")
				b.ReportMetric(float64(l.classStats.exact-before.exact)/n, "exact/op")
			})
		}
	}
}

// TestClassExpWithinBound pins the class shadow's table exp, as
// NewLedger builds it, to its stated relative error, tableExpErr,
// against math.Exp (itself within an ulp, far below the bound's
// margin): at every knot, one ulp either side of every knot, at the
// table end and at 1e5 random points, for the default truncation and
// for a wider one. The table must
// reach a nat past the truncation (a candidate's relative exponent
// stays within 2e-6 of it), and the nearest station's relative weight,
// exp(0), must be exactly 1.
func TestClassExpWithinBound(t *testing.T) {
	net := newSizedNet(t, 1, 500)
	for _, minProb := range []float64{0, 1e-16} {
		l := newLedger(t, net, func(c *Config) { c.MinProb = minProb })
		if !l.classes {
			t.Fatalf("MinProb %g: class shadow off", l.cfg.MinProb)
		}
		nats, tab := l.classNats, l.exp
		end := math.Nextafter(float64(len(tab))/64, 0)
		check := func(x float64) {
			t.Helper()
			want := math.Exp(-x)
			if got := tab.at(x); math.Abs(got-want) > tableExpErr*want {
				t.Fatalf("T=%g: exp(-%v) = %v, math.Exp %v: relative error %.3g over %g",
					nats, x, got, want, math.Abs(got-want)/want, tableExpErr)
			}
		}
		if got := tab.at(0); got != 1 {
			t.Fatalf("T=%g: exp(-0) = %v, want exactly 1", nats, got)
		}
		if end < nats+1 {
			t.Fatalf("T=%g: table ends at %v, below T+1", nats, end)
		}
		for j := range tab {
			x := float64(j) / 64
			check(x)
			check(math.Nextafter(x, math.Inf(1)))
			if j > 0 {
				check(math.Nextafter(x, 0))
			}
		}
		check(end)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 100000; i++ {
			check(rng.Float64() * end)
		}
	}
}
