package scc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"facs/internal/cell"
	"facs/internal/geo"
)

// demandMass sums the local demand matrix (no ghost) over every cell
// and interval.
func demandMass(l *Ledger) int {
	var total int
	for _, v := range l.demand {
		total += v
	}
	return total
}

// admitContractCompliant admits n calls whose positions sit within the
// home cell (inside the inradius) and whose speeds respect maxKmh —
// the workload promise MaxSpeedKmh documents.
func admitContractCompliant(t *testing.T, l *Ledger, net *cell.Network, rng *rand.Rand, n int, maxKmh float64) {
	t.Helper()
	stations := net.Stations()
	inradius := 0.85 * math.Sqrt(3) / 2 * net.Layout().CellRadius
	for i := 0; i < n; i++ {
		bs := stations[rng.Intn(len(stations))]
		ang := rng.Float64() * 2 * math.Pi
		r := inradius * math.Sqrt(rng.Float64())
		pos := geo.Point{X: bs.Pos().X + r*math.Cos(ang), Y: bs.Pos().Y + r*math.Sin(ang)}
		req := randomRequest(t, rng, net, i+1, 0)
		req.Station = bs
		req.Est = gpsEstimate(pos, rng.Float64()*360-180, rng.Float64()*maxKmh)
		l.OnAdmit(req)
	}
}

// TestLedgerMigrateConservesDemand pins the migration seam's
// conservation law: extracting a cell's tracks retracts exactly the
// demand a fresh sibling ledger adds back when it ingests them — the
// per-entry split sums to the original matrix bit-for-bit (same
// footprint computation, same config), and no track is lost or
// duplicated.
func TestLedgerMigrateConservesDemand(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	src := newLedger(t, net)
	dst := newLedger(t, net)
	for i := 1; i <= 60; i++ {
		src.OnAdmit(randomRequest(t, rng, net, i, 4000))
	}
	before := demandMass(src)
	active := src.ActiveCalls()
	if before == 0 || active == 0 {
		t.Fatal("degenerate setup: no projected demand")
	}

	// Move every cell's tracks, one migration per cell, like an epoch
	// that reassigns the whole map.
	var moved int
	for _, bs := range net.Stations() {
		rows := src.MigrateOut(bs.Hex(), nil)
		for i, r := range rows {
			if r.Home != bs.Hex() {
				t.Fatalf("migrated row %d homed at %v, extracted for %v", r.ID, r.Home, bs.Hex())
			}
			if i > 0 && rows[i-1].ID >= r.ID {
				t.Fatalf("migration rows out of ID order: %d then %d", rows[i-1].ID, r.ID)
			}
		}
		moved += len(rows)
		dst.MigrateIn(rows)
	}
	if moved != active {
		t.Fatalf("migrated %d tracks, want %d", moved, active)
	}
	if src.ActiveCalls() != 0 {
		t.Fatalf("source still tracks %d calls", src.ActiveCalls())
	}
	if dst.ActiveCalls() != active {
		t.Fatalf("destination tracks %d calls, want %d", dst.ActiveCalls(), active)
	}
	if got := demandMass(src); got != 0 {
		t.Fatalf("source demand mass %d after full migration, want 0", got)
	}
	if got := demandMass(dst); got != before {
		t.Fatalf("destination demand mass %d, want %d", got, before)
	}
	// Per-entry equality against an oracle that admitted directly.
	h := dst.cfg.Horizon + 1
	oracle := newLedger(t, net)
	rng2 := rand.New(rand.NewSource(11))
	for i := 1; i <= 60; i++ {
		oracle.OnAdmit(randomRequest(t, rng2, net, i, 4000))
	}
	for i := range dst.demand {
		if dst.demand[i] != oracle.demand[i] {
			t.Fatalf("demand[%d] = %d after migration, oracle has %d (cell %v k %d)",
				i, dst.demand[i], oracle.demand[i], dst.stations[i/h].Hex(), i%h)
		}
	}
	snap := dst.Snapshot()
	if snap.MigratedIn != int64(active) || snap.MigratedOut != 0 {
		t.Fatalf("destination snapshot counts in=%d out=%d, want in=%d out=0", snap.MigratedIn, snap.MigratedOut, active)
	}
	if out := src.Snapshot().MigratedOut; out != int64(active) {
		t.Fatalf("source snapshot counts out=%d, want %d", out, active)
	}
	// The operator summary reports the migration counters too.
	if got, want := src.Snapshot().String(), fmt.Sprintf("%d migrated out, 0 migrated in", active); !strings.Contains(got, want) {
		t.Fatalf("summary %q does not contain %q", got, want)
	}
}

// TestLedgerResetExchangeRepublishesAbsolute pins the rebalance-epoch
// exchange contract: after ResetExchange on both sides, the next
// ExportDemand carries the full absolute demand matrix (not a delta)
// and a receiver that accumulates it reconstructs the exporter's
// demand exactly, from a zeroed ghost.
func TestLedgerResetExchangeRepublishesAbsolute(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	exp := newLedger(t, net)
	recv := newLedger(t, net)

	// Establish exchange history so the reset has stale state to clear:
	// two delta rounds, then churn that was never exported.
	for i := 1; i <= 30; i++ {
		exp.OnAdmit(randomRequest(t, rng, net, i, 4000))
	}
	recv.ApplyGhost(0, exp.ExportDemand())
	for i := 31; i <= 45; i++ {
		exp.OnAdmit(randomRequest(t, rng, net, i, 4000))
	}
	recv.ApplyGhost(0, exp.ExportDemand())
	for i := 1; i <= 10; i++ {
		exp.OnRelease(i, nil, 0)
	}
	genBefore := exp.exportGen

	exp.ResetExchange()
	recv.ResetExchange()
	delta := exp.ExportDemand()
	if delta.Gen <= genBefore {
		t.Fatalf("export generation rewound: %d after reset, %d before", delta.Gen, genBefore)
	}
	var exported int
	for _, r := range delta.Rows {
		exported += r.Amount
	}
	if mass := demandMass(exp); exported != mass {
		t.Fatalf("post-reset export carries %d BU, exporter demand mass is %d (not absolute)", exported, mass)
	}
	recv.ApplyGhost(0, delta)
	for _, bs := range net.Stations() {
		for k := 0; k <= exp.cfg.Horizon; k++ {
			want := exp.ProjectedDemand(bs.Hex(), k)
			got := recv.GhostDemand(bs.Hex(), k)
			if got != want {
				t.Fatalf("receiver ghost for %v k=%d is %d, exporter demand %d", bs.Hex(), k, got, want)
			}
		}
	}
}

// TestLedgerInterestRadiusCoversFootprints pins the soundness of the
// declared interest bound: for contract-compliant tracks (position
// within the home cell, speed at most MaxSpeedKmh) every footprint
// cell lies within InterestRadiusCells hex rings of the home cell —
// the engine may drop rows outside the radius without ever hiding
// demand a decision reads. Also pins the unbounded sentinel and
// monotonicity in the speed bound.
func TestLedgerInterestRadiusCoversFootprints(t *testing.T) {
	net, err := cell.NewNetwork(cell.NetworkConfig{Rings: 6, CellRadiusM: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r := newLedger(t, net).InterestRadiusCells(); r != -1 {
		t.Fatalf("no speed bound should mean unbounded interest, got %d", r)
	}
	slow := newLedger(t, net, func(c *Config) { c.MaxSpeedKmh = 30 }).InterestRadiusCells()
	fast := newLedger(t, net, func(c *Config) { c.MaxSpeedKmh = 120 }).InterestRadiusCells()
	if slow < 1 || fast < slow {
		t.Fatalf("radius not positive-monotone in speed: %d at 30 km/h, %d at 120", slow, fast)
	}

	const maxKmh = 80.0
	l := newLedger(t, net, func(c *Config) { c.MaxSpeedKmh = maxKmh })
	radius := l.InterestRadiusCells()
	if radius < 1 {
		t.Fatalf("expected a positive radius, got %d", radius)
	}
	rng := rand.New(rand.NewSource(23))
	admitContractCompliant(t, l, net, rng, 400, maxKmh)
	if l.ActiveCalls() == 0 {
		t.Fatal("no tracks admitted")
	}
	for _, lt := range l.tracks {
		for _, fc := range lt.foot {
			cellHex := l.stations[fc.cell].Hex()
			if d := lt.home.DistanceTo(cellHex); d > radius {
				t.Fatalf("call %d homed at %v projects onto %v at hex distance %d > radius %d",
					lt.id, lt.home, cellHex, d, radius)
			}
		}
	}
}
