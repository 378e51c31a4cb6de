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

// TestLedgerShadowMatchesReference pins the Ledger's pruned shadow to
// appendShadow, the reference the recompute Controller uses: for
// randomized kinematics over many geometries and configurations, both
// must emit the same cells in the same order with bitwise-equal
// probabilities. The configurations stretch sigma, SpreadAlpha and
// MinProb (down to 1e-30, where only the derived margin keeps skipped
// stations out of the emitted set); the inputs include standstill,
// out-of-range k, points exactly on stations and points so far outside
// coverage that every weight underflows (the nearest-station collapse).
func TestLedgerShadowMatchesReference(t *testing.T) {
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
	var evaluated, weighed int
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
					weights := make([]float64, len(l.stations))
					rng := rand.New(rand.NewSource(int64(rings*1000) + int64(radius)))
					inputs := make([]shadowInput, 0, n+1)
					for i := 0; i < n; i++ {
						inputs = append(inputs, randomShadowInput(rng, net, extent, l.cfg.Horizon))
					}
					// Every weight underflows this far out at sigma = 1 m.
					inputs = append(inputs, shadowInput{pos: geo.Point{X: 50 * extent, Y: -20 * extent}, heading: 90})
					for _, in := range inputs {
						want := appendShadow(&l.cfg, l.stations, weights, nil, in.pos, in.heading, in.speedMps, in.k)
						got := l.shadow(nil, in.pos, in.heading, geo.UnitFromHeading(in.heading), in.speedMps, in.k)
						evaluated += len(l.evaluated)
						weighed += len(l.stations)
						if len(got) != len(want) {
							t.Fatalf("%+v: ledger shadow has %d entries, reference %d", in, len(got), len(want))
						}
						for i := range want {
							if h := l.stations[got[i].ci].Hex(); h != want[i].Hex ||
								math.Float64bits(got[i].prob) != math.Float64bits(want[i].Prob) {
								t.Fatalf("%+v entry %d: ledger %v p=%v, reference %v p=%v",
									in, i, h, got[i].prob, want[i].Hex, want[i].Prob)
							}
						}
					}
				})
			}
		}
	}
	// The pruning must actually prune, or the equality above is vacuous.
	share := float64(evaluated) / float64(weighed)
	t.Logf("evaluated %.1f%% of %d station weights", 100*share, weighed)
	if share >= 0.9 {
		t.Fatalf("pruned shadow evaluated %.1f%% of station weights; want well below 100%%", 100*share)
	}
}

// BenchmarkLedgerShadow times one shadow — the reference appendShadow
// against the Ledger's pruned shadow — at k = 0 and k = Horizon, on the
// 127-cell district and the 1027-cell city geometry (500 m cells, the
// Fig. 10 configuration), over kinematics inside coverage. The
// evaluated-share metric is the fraction of station weights whose exp
// the routine computes (1 for the reference).
func BenchmarkLedgerShadow(b *testing.B) {
	for _, geom := range []struct {
		name  string
		rings int
	}{{"district", 6}, {"city", 18}} {
		net := newSizedNet(b, geom.rings, 500)
		l, err := NewLedger(Config{Network: net, Reservation: ReservationFull, RequireClusterCoverage: true})
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
				b.ReportMetric(1, "evaluated-share")
			})
			b.Run(fmt.Sprintf("%s/ledger/k=%d", geom.name, k), func(b *testing.B) {
				var dst []shadowCell
				evaluated := 0
				for i := 0; i < b.N; i++ {
					in := &inputs[i%len(inputs)]
					dst = l.shadow(dst[:0], in.pos, in.heading, geo.UnitFromHeading(in.heading), in.speedMps, k)
					evaluated += len(l.evaluated)
				}
				b.ReportMetric(float64(evaluated)/float64(b.N*len(l.stations)), "evaluated-share")
			})
		}
	}
}
