package scc

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/geo"
	"facs/internal/gps"
	"facs/internal/traffic"
)

func TestReservationModeValidation(t *testing.T) {
	net := newNet(t, 0)
	// 1 is the number of the retired weighted mode.
	for _, mode := range []ReservationMode{1, 42} {
		if _, err := New(Config{Network: net, Reservation: mode}); err == nil {
			t.Fatalf("reservation mode %d should error", mode)
		}
	}
	if _, err := New(Config{Network: net, InclusionProb: 1.5}); err == nil {
		t.Fatal("inclusion probability above 1 should error")
	}
	c, err := New(Config{Network: net})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().Reservation != ReservationFull || c.Config().InclusionProb != 0.15 {
		t.Fatalf("defaults not applied: %+v", c.Config())
	}
}

func TestFullReservationIgnoresLowProbabilityCells(t *testing.T) {
	net := newNet(t, 1)
	full := newSCC(t, net, func(cfg *Config) { cfg.InclusionProb = 0.45 })
	req := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	full.OnAdmit(req)
	// A stationary call's mass sits ~entirely at home: every neighbour
	// is below the inclusion threshold and reserves nothing.
	for _, bs := range net.Neighbors(geo.Hex{Q: 0, R: 0}) {
		if got := full.ExpectedDemand(bs.Hex(), 0); got != 0 {
			t.Fatalf("neighbour %v reserved %v, want 0", bs.Hex(), got)
		}
	}
}

func TestRequireClusterCoverageRejectsExitingUsers(t *testing.T) {
	net := newNet(t, 0) // a single cell: it is easy to dead-reckon out
	strict := newSCC(t, net, func(cfg *Config) { cfg.RequireClusterCoverage = true })
	lax := newSCC(t, net)
	// A fast user heading east exits the 2 km cell well within the
	// 60 s projection horizon.
	exiting := sccRequest(t, net, 1, traffic.Voice, geo.Point{}, 0, 120)
	d, err := strict.Decide(exiting)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Reject {
		t.Fatal("coverage requirement should reject a user that dead-reckons out")
	}
	d, err = lax.Decide(exiting)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("without the requirement the same user is accepted")
	}
	// A stationary user never leaves and is accepted by both.
	staying := sccRequest(t, net, 2, traffic.Voice, geo.Point{}, 0, 0)
	d, err = strict.Decide(staying)
	if err != nil {
		t.Fatal(err)
	}
	if d != cac.Accept {
		t.Fatal("stationary user should pass the coverage requirement")
	}
}

func TestOnStateUpdateAdapter(t *testing.T) {
	net := newNet(t, 1)
	c := newSCC(t, net)
	req := sccRequest(t, net, 1, traffic.Video, geo.Point{}, 0, 0)
	c.OnAdmit(req)
	east := geo.Hex{Q: 1, R: 0}
	bs, ok := net.At(east)
	if !ok {
		t.Fatal("east cell missing")
	}
	c.OnStateUpdate(1, gps.Estimate{Pos: net.Layout().Center(east)}, bs)
	if got := c.ExpectedDemand(east, 0); got < 9 {
		t.Fatalf("east demand after OnStateUpdate = %v, want ~10", got)
	}
}
