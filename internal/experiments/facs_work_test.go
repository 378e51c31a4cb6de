package experiments

import (
	"testing"

	"facs/internal/cac"
	"facs/internal/facs"
	"facs/internal/shard"
)

// TestCityFACSWorkCountersPin pins the compiled FACS's work over one
// simulated day of the city-facs benchmark's shape (1027 cells of 500 m
// at 40 BU, the inline batch engine, 10,000 target calls, 96 waves with
// a tick every 4, batches of 256) at seed 1, on a fresh controller: the
// decision outcome, which step settled each decision that reached the
// controller (whole cell, sub-cell, exact engines), how many FLC1 cells
// and sub-cells the day enclosed, and how many accept-table rows it
// filled with how many FLC2 enclosures. Every count is exact; a change
// that moves one must say why.
//
// While the accept table was built eagerly from the FLC2 surface's
// probed error bounds, the day settled (cell, sub-cell, exact) =
// (120,851, 2,213, 1,313) and enclosed 4,468 sub-cells. The enclosed
// table's intervals are wider, so more decisions settle early:
// (120,911, 2,207, 1,259) and 4,341 sub-cells. The day fills 104 of the
// 451 rows (handoffs read the new-call rows, there being no handoff
// bias) with 3,704 FLC2 enclosures.
func TestCityFACSWorkCountersPin(t *testing.T) {
	cc, err := facs.NewCompiled(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunMetropolis(MetropolisConfig{
		NewController:  func(shard.View) (cac.Controller, error) { return cc, nil },
		Mode:           MetroBatch,
		Shards:         1,
		Rings:          18,
		CellRadiusM:    500,
		CapacityBU:     40,
		TargetCalls:    10000,
		Waves:          96,
		WavesPerDay:    96,
		TickEveryWaves: 4,
		MaxBatch:       256,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DecisionHash != 0x6eac7b358aee6c4b {
		t.Fatalf("outcome: hash %#x, %d requested, %d accepted, %d handoffs, %d dropped",
			r.DecisionHash, r.Requested, r.Accepted, r.Handoffs, r.HandoffDropped)
	}
	fast, exact := cc.Stats()
	cell := cc.CellSettled()
	cells, subCells := cc.Enclosed()
	rows, flc2 := cc.RowsFilled()
	type counts struct{ cell, sub, exact, cells, subCells, rows, flc2 int64 }
	got := counts{cell, fast - cell, exact, cells, subCells, rows, flc2}
	t.Logf("%d decisions reached the controller: %+v", fast+exact, got)
	want := counts{cell: 120911, sub: 2207, exact: 1259, cells: 7296, subCells: 4341, rows: 104, flc2: 3704}
	if got != want {
		t.Fatalf("work counters %+v, want %+v", got, want)
	}
}
