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
	for _, obs := range []facs.Observation{
		{SpeedKmh: 60, AngleDeg: 0, DistanceKm: 2},
		{SpeedKmh: 4, AngleDeg: 90, DistanceKm: 9},
		{SpeedKmh: 30, AngleDeg: -50, DistanceKm: 5.5},
	} {
		want, err := exact.Evaluate(obs, 5, 12, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Evaluate(obs, 5, 12, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Accepted != want.Accepted || got.Grade != want.Grade {
			t.Fatalf("decision mismatch at %+v: exact (%v, %v), compiled (%v, %v)",
				obs, want.Grade, want.Accepted, got.Grade, got.Accepted)
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
// seeded batch. The cell check must settle all but at most 1 in 20 of
// the requests that reach the controllers, and the exact engines must
// see exactly the requests the point check alone would send them: a
// cell verdict is only taken where the point verdict is the same. The
// outcomes must be the exact System's.
func TestCompiledDecideBatchSettlement(t *testing.T) {
	// Before the cell check the point check settled 460 and 5 went exact.
	const wantCell, wantPoint, wantExact = 459, 1, 5
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
	point, exact := f1-f0-cell, e1-e0
	for i := range reqs {
		if got[i] != want[i] {
			t.Fatalf("request %d: compiled %v, exact %v", i, got[i], want[i])
		}
	}
	if cell != wantCell || point != wantPoint || exact != wantExact {
		t.Fatalf("settled (cell, point, exact) = (%d, %d, %d), want (%d, %d, %d)",
			cell, point, exact, wantCell, wantPoint, wantExact)
	}
	if total := cell + point + exact; 20*(point+exact) > total {
		t.Fatalf("%d of %d decisions reached the interpolation, more than 1 in 20", point+exact, total)
	}
}
