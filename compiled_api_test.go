package facs_test

import (
	"testing"

	"facs"
)

// Public-API smoke tests for the compiled fast path; the exhaustive
// golden-equivalence suite lives in internal/facs.

func TestPublicCompiledSystem(t *testing.T) {
	exact := facs.MustSystem()
	cc, err := facs.DefaultCompiledSystem()
	if err != nil {
		t.Fatal(err)
	}
	net, err := facs.NewNetwork(facs.NetworkConfig{Rings: 1})
	if err != nil {
		t.Fatal(err)
	}
	bs := net.Stations()[0]
	for id := 1; bs.Used() < 12; id++ {
		if err := bs.Admit(facs.Call{ID: id, Class: facs.Text, BU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, obs := range []facs.Observation{
		{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2},
		{SpeedKmh: 4, AngleDeg: 90, DistanceKm: 9},
		{SpeedKmh: 30, AngleDeg: -50, DistanceKm: 5.5},
	} {
		req := facs.AdmissionRequest{Call: facs.Call{ID: 100, Class: facs.Voice, BU: 5}, Station: bs, Obs: obs}
		want, err := exact.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("decision mismatch at %+v: exact %v, compiled %v", obs, want, got)
		}
		// Evaluate is the exact System's.
		wantEv, err := exact.Evaluate(obs, 5, 12, false)
		if err != nil {
			t.Fatal(err)
		}
		gotEv, err := cc.Evaluate(obs, 5, 12, false)
		if err != nil {
			t.Fatal(err)
		}
		if gotEv != wantEv {
			t.Fatalf("Evaluate at %+v: compiled %+v, exact %+v", obs, gotEv, wantEv)
		}
	}
	if cc.Name() != "facs-compiled" {
		t.Fatalf("Name = %q", cc.Name())
	}
}

func TestPublicCompiledSystemErrors(t *testing.T) {
	if _, err := facs.NewCompiledSystem(0, facs.WithAcceptThreshold(7)); err == nil {
		t.Fatal("invalid option should propagate")
	}
}

func TestPublicRunSeeds(t *testing.T) {
	cc, err := facs.DefaultCompiledSystem()
	if err != nil {
		t.Fatal(err)
	}
	results, err := facs.RunSingleCellSeeds(facs.SingleCellConfig{
		Controller:  cc,
		NumRequests: 15,
	}, []int64{1, 2, 3}, facs.DefaultWorkers())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Requested == 0 {
			t.Fatal("empty replication result")
		}
	}
}

// TestCompiledDecideBatchSettlement pins which step of the compiled
// decision path settles each request of BenchmarkCompiledDecideBatch's
// seeded batch: a whole FLC1 cell's enclosure, a sub-cell's, or the
// exact engines. The cell step must settle all but at most 1 in 20 of
// the requests that reach the controllers, and the outcomes must be the
// exact System's.
func TestCompiledDecideBatchSettlement(t *testing.T) {
	// With probed cell ranges and a point check instead of enclosures,
	// the cell check settled 459, the point check 1 and 5 went exact.
	// Certifying the accept table with FLC2 enclosures instead of the
	// FLC2 surface's probed bounds left all three counts as they were.
	const wantCell, wantSub, wantExact = 459, 4, 2
	cc, err := facs.DefaultCompiledSystem()
	if err != nil {
		t.Fatal(err)
	}
	reqs := compiledDecideBatch(t)
	want, err := facs.DecideAll(facs.MustSystem(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]facs.Decision, len(reqs))
	f0, e0 := cc.Stats()
	c0 := cc.CellSettled()
	if err := cc.DecideBatchInto(reqs, got); err != nil {
		t.Fatal(err)
	}
	f1, e1 := cc.Stats()
	cell := cc.CellSettled() - c0
	sub, exact := f1-f0-cell, e1-e0
	for i := range reqs {
		if got[i] != want[i] {
			t.Fatalf("request %d: compiled %v, exact %v", i, got[i], want[i])
		}
	}
	if cell != wantCell || sub != wantSub || exact != wantExact {
		t.Fatalf("settled (cell, sub-cell, exact) = (%d, %d, %d), want (%d, %d, %d)",
			cell, sub, exact, wantCell, wantSub, wantExact)
	}
	if total := cell + sub + exact; 20*(sub+exact) > total {
		t.Fatalf("%d of %d decisions reached a sub-cell, more than 1 in 20", sub+exact, total)
	}
}
